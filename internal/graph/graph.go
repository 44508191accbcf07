package graph

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// V is a vertex identifier. Vertices are arbitrary values in [0, MaxV];
// they need not be contiguous.
type V int64

// MaxV is the largest vertex id. The bound is what lets every adjacency-list
// stream store its ids in uint32 columns; Builder.Add and Delta reject ids
// outside [0, MaxV].
const MaxV V = math.MaxUint32

// checkV returns an error naming v when it lies outside [0, MaxV].
func checkV(v V) error {
	if v < 0 || v > MaxV {
		return fmt.Errorf("graph: vertex id %d outside [0, %d]", v, MaxV)
	}
	return nil
}

// Edge is an undirected edge. The canonical form (as produced by Norm and
// required by map keys throughout the repository) has U < V.
type Edge struct {
	U, V V
}

// Norm returns the canonical orientation of e with U < V.
func (e Edge) Norm() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}

// String implements fmt.Stringer.
func (e Edge) String() string { return fmt.Sprintf("{%d,%d}", e.U, e.V) }

// Graph is a finalized simple undirected graph. The zero value is an empty
// graph. Graphs are built with NewBuilder or FromEdges and are immutable
// afterwards; all read methods are safe for concurrent use — including the
// lazily built CSR index and the memoized derived quantities below, which
// are computed at most once per graph behind sync.Once.
type Graph struct {
	nbr  map[V][]V // sorted neighbor lists
	vs   []V       // sorted vertex list
	m    int64     // number of edges
	maxD int       // maximum degree

	// Lazily built CSR index (csr.go), shared by all exact kernels.
	csrOnce sync.Once
	csrIx   *csr

	// Memoized derived quantities. Experiments score every grid point
	// against these, so each is computed once per (immutable) graph.
	triOnce        sync.Once
	triCount       int64
	fourOnce       sync.Once
	fourCount      int64
	wedgeOnce      sync.Once
	wedgeP2        int64
	triLoadsOnce   sync.Once
	triLoadSlice   []int64 // per-edge triangle loads, canonical edge ids
	triLoadMapOnce sync.Once
	triLoadMap     map[Edge]int64
	localTriOnce   sync.Once
	localTriSlice  []int64 // per-vertex triangle counts, dense ids
	momentsOnce    sync.Once
	degMoments     [3]int64 // Σ deg, Σ deg², Σ deg³
	motifOnce      sync.Once
	motifCounts    MotifCounts
}

// Builder accumulates edges and produces a Graph. Duplicate edges and
// self-loops are rejected at Add time.
type Builder struct {
	nbr map[V]map[V]struct{}
	m   int64
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{nbr: make(map[V]map[V]struct{})}
}

// Add inserts the undirected edge {u,v}. It returns an error for ids
// outside [0, MaxV], self-loops and duplicate edges.
func (b *Builder) Add(u, v V) error {
	if err := checkV(u); err != nil {
		return err
	}
	if err := checkV(v); err != nil {
		return err
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at vertex %d", u)
	}
	if _, ok := b.nbr[u][v]; ok {
		return fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
	}
	b.addHalf(u, v)
	b.addHalf(v, u)
	b.m++
	return nil
}

// AddIfAbsent inserts {u,v} unless it is a self-loop or already present.
// It reports whether the edge was inserted.
func (b *Builder) AddIfAbsent(u, v V) bool {
	if u == v {
		return false
	}
	if _, ok := b.nbr[u][v]; ok {
		return false
	}
	b.addHalf(u, v)
	b.addHalf(v, u)
	b.m++
	return true
}

func (b *Builder) addHalf(u, v V) {
	s, ok := b.nbr[u]
	if !ok {
		s = make(map[V]struct{})
		b.nbr[u] = s
	}
	s[v] = struct{}{}
}

// AddVertex ensures v exists even if isolated.
func (b *Builder) AddVertex(v V) {
	if _, ok := b.nbr[v]; !ok {
		b.nbr[v] = make(map[V]struct{})
	}
}

// Has reports whether edge {u,v} is already present.
func (b *Builder) Has(u, v V) bool {
	_, ok := b.nbr[u][v]
	return ok
}

// M returns the number of edges added so far.
func (b *Builder) M() int64 { return b.m }

// Graph finalizes the builder into an immutable Graph. The builder may be
// reused afterwards, but further Adds do not affect the returned Graph.
func (b *Builder) Graph() *Graph {
	g := &Graph{nbr: make(map[V][]V, len(b.nbr)), m: b.m}
	g.vs = make([]V, 0, len(b.nbr))
	for v, set := range b.nbr {
		ns := make([]V, 0, len(set))
		for u := range set {
			ns = append(ns, u)
		}
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		g.nbr[v] = ns
		g.vs = append(g.vs, v)
		if len(ns) > g.maxD {
			g.maxD = len(ns)
		}
	}
	sort.Slice(g.vs, func(i, j int) bool { return g.vs[i] < g.vs[j] })
	return g
}

// FromEdges builds a Graph from an edge list. It returns an error on
// self-loops or duplicate edges (in either orientation).
func FromEdges(edges []Edge) (*Graph, error) {
	b := NewBuilder()
	for _, e := range edges {
		if err := b.Add(e.U, e.V); err != nil {
			return nil, err
		}
	}
	return b.Graph(), nil
}

// MustFromEdges is FromEdges that panics on error; intended for tests and
// hand-written fixtures.
func MustFromEdges(edges []Edge) *Graph {
	g, err := FromEdges(edges)
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of vertices (including isolated vertices that were
// explicitly added).
func (g *Graph) N() int { return len(g.vs) }

// M returns the number of edges.
func (g *Graph) M() int64 { return g.m }

// MaxDegree returns the maximum vertex degree.
func (g *Graph) MaxDegree() int { return g.maxD }

// Degree returns the degree of v (0 if v is not in the graph).
func (g *Graph) Degree(v V) int { return len(g.nbr[v]) }

// Neighbors returns the sorted neighbor list of v. The returned slice is
// shared with the graph and must not be modified.
func (g *Graph) Neighbors(v V) []V { return g.nbr[v] }

// Vertices returns the sorted vertex list. The returned slice is shared with
// the graph and must not be modified.
func (g *Graph) Vertices() []V { return g.vs }

// HasVertex reports whether v is a vertex of g.
func (g *Graph) HasVertex(v V) bool {
	_, ok := g.nbr[v]
	return ok
}

// HasEdge reports whether {u,v} is an edge of g.
func (g *Graph) HasEdge(u, v V) bool {
	ns := g.nbr[u]
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	return i < len(ns) && ns[i] == v
}

// Edges returns all edges in canonical orientation, sorted by (U,V).
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.m)
	for _, u := range g.vs {
		for _, v := range g.nbr[u] {
			if u < v {
				es = append(es, Edge{u, v})
			}
		}
	}
	return es
}

// WedgeCount returns P2, the number of paths of length two, which equals
// Σ_v C(deg(v), 2). Memoized.
func (g *Graph) WedgeCount() int64 {
	g.wedgeOnce.Do(func() {
		var p2 int64
		for _, v := range g.vs {
			d := int64(len(g.nbr[v]))
			p2 += d * (d - 1) / 2
		}
		g.wedgeP2 = p2
	})
	return g.wedgeP2
}

// DegreeSum returns Σ_v deg(v) = 2m.
func (g *Graph) DegreeSum() int64 { return 2 * g.m }

// DegreeMoments returns the first three degree moments Σ deg(v),
// Σ deg(v)², Σ deg(v)³ — the quantities the space bounds' workload
// parameters (m, P2, heavy-vertex skew) are phrased in. Memoized.
func (g *Graph) DegreeMoments() (s1, s2, s3 int64) {
	g.momentsOnce.Do(func() {
		for _, v := range g.vs {
			d := int64(len(g.nbr[v]))
			g.degMoments[0] += d
			g.degMoments[1] += d * d
			g.degMoments[2] += d * d * d
		}
	})
	return g.degMoments[0], g.degMoments[1], g.degMoments[2]
}

// commonNeighbors returns |N(u) ∩ N(v)| using a sorted-merge intersection.
func (g *Graph) commonNeighbors(u, v V) int {
	a, b := g.nbr[u], g.nbr[v]
	n := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// CommonNeighbors returns the number of common neighbors of u and v.
func (g *Graph) CommonNeighbors(u, v V) int { return g.commonNeighbors(u, v) }
