package graph

import (
	"fmt"
	"math"
	"slices"
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

// Graph is a finalized simple undirected graph in compressed-sparse-row
// form: the sorted vertex names, row offsets and one neighbor array, row i
// holding the ascending neighbors of the i-th vertex. The zero value is an
// empty graph. Graphs are built with NewBuilder, FromEdges or Delta.Apply
// and are immutable afterwards; all read methods are safe for concurrent
// use — including the lazily built kernel index and the memoized derived
// quantities below, which are computed at most once per graph behind
// sync.Once.
type Graph struct {
	vs   []V     // sorted vertex names
	off  []int64 // len n+1 (nil for the zero value); row i is adj[off[i]:off[i+1]]
	adj  []V     // neighbor names, ascending within each row
	m    int64   // number of edges
	maxD int     // maximum degree

	// Lazily built kernel index (csr.go), shared by all exact kernels.
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
	if !b.AddIfAbsent(u, v) {
		return fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
	}
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

// M returns the number of edges added so far.
func (b *Builder) M() int64 { return b.m }

// Graph finalizes the builder into an immutable Graph, writing each sorted
// row straight into the neighbor array. The builder may be reused
// afterwards, but further Adds do not affect the returned Graph.
func (b *Builder) Graph() *Graph {
	vs := make([]V, 0, len(b.nbr))
	for v := range b.nbr {
		vs = append(vs, v)
	}
	slices.Sort(vs)
	g := &Graph{vs: vs, off: make([]int64, len(vs)+1), adj: make([]V, 0, 2*b.m), m: b.m}
	for i, v := range vs {
		row := len(g.adj)
		for u := range b.nbr[v] {
			g.adj = append(g.adj, u)
		}
		slices.Sort(g.adj[row:])
		g.off[i+1] = int64(len(g.adj))
		g.maxD = max(g.maxD, len(g.adj)-row)
	}
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

// index returns v's row, or -1 when v is not a vertex. Ids 0..n-1 index
// their rows directly (vertex names are sorted and distinct, so a first
// name 0 and a last name n-1 mean every name is its own position); other
// graphs search.
func (g *Graph) index(v V) int {
	if n := len(g.vs); n > 0 && g.vs[0] == 0 && g.vs[n-1] == V(n-1) {
		if v >= 0 && v < V(n) {
			return int(v)
		}
		return -1
	}
	if i, ok := slices.BinarySearch(g.vs, v); ok {
		return i
	}
	return -1
}

// row returns the neighbors of the i-th vertex, capacity-capped so an
// append can never write into the next row.
func (g *Graph) row(i int) []V { return g.adj[g.off[i]:g.off[i+1]:g.off[i+1]] }

// Degree returns the degree of v (0 if v is not in the graph).
func (g *Graph) Degree(v V) int {
	if i := g.index(v); i >= 0 {
		return int(g.off[i+1] - g.off[i])
	}
	return 0
}

// Neighbors returns the sorted neighbor list of v (nil if v is not in the
// graph). The returned slice is shared with the graph and must not be
// modified.
func (g *Graph) Neighbors(v V) []V {
	if i := g.index(v); i >= 0 {
		return g.row(i)
	}
	return nil
}

// Vertices returns the sorted vertex list. The returned slice is shared with
// the graph and must not be modified.
func (g *Graph) Vertices() []V { return g.vs }

// Rows returns the adjacency in row form: the ascending neighbors of
// Vertices()[i] are nbrs[off[i]:off[i+1]]. off has N()+1 entries (it may be
// nil when N() is 0). Both slices are shared with the graph and must not
// be modified.
func (g *Graph) Rows() (off []int64, nbrs []V) { return g.off, g.adj }

// HasVertex reports whether v is a vertex of g.
func (g *Graph) HasVertex(v V) bool { return g.index(v) >= 0 }

// HasEdge reports whether {u,v} is an edge of g.
func (g *Graph) HasEdge(u, v V) bool {
	_, ok := slices.BinarySearch(g.Neighbors(u), v)
	return ok
}

// Edges returns all edges in canonical orientation, sorted by (U,V).
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.m)
	for i, u := range g.vs {
		for _, v := range g.row(i) {
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
		for i := range g.vs {
			d := g.off[i+1] - g.off[i]
			p2 += d * (d - 1) / 2
		}
		g.wedgeP2 = p2
	})
	return g.wedgeP2
}

// DegreeMoments returns the first three degree moments Σ deg(v),
// Σ deg(v)², Σ deg(v)³ — the quantities the space bounds' workload
// parameters (m, P2, heavy-vertex skew) are phrased in. Memoized.
func (g *Graph) DegreeMoments() (s1, s2, s3 int64) {
	g.momentsOnce.Do(func() {
		for i := range g.vs {
			d := g.off[i+1] - g.off[i]
			g.degMoments[0] += d
			g.degMoments[1] += d * d
			g.degMoments[2] += d * d * d
		}
	})
	return g.degMoments[0], g.degMoments[1], g.degMoments[2]
}

// CommonNeighbors returns the number of common neighbors of u and v, by a
// sorted-merge intersection of their rows.
func (g *Graph) CommonNeighbors(u, v V) int {
	a, b := g.Neighbors(u), g.Neighbors(v)
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
