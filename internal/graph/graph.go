package graph

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"adjstream/internal/flat"
)

// V is a vertex identifier. Vertices are arbitrary values in [0, MaxV];
// they need not be contiguous.
type V int64

// MaxV is the largest vertex id. The bound is what lets every adjacency-list
// stream store its ids in uint32 columns; Builder and Delta refuse ids
// outside [0, MaxV].
const MaxV V = math.MaxUint32

// ValidID reports whether v lies in [0, MaxV], the range every graph,
// adjacency-list stream and arbitrary-order stream accepts.
func ValidID(v V) bool { return v >= 0 && v <= MaxV }

// checkV returns an error naming v when it lies outside [0, MaxV].
func checkV(v V) error {
	if !ValidID(v) {
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

// Builder accumulates edges and produces a Graph. Duplicate edges,
// self-loops and ids outside [0, MaxV] are rejected at Add time.
//
// It keeps no map: each vertex name gets a dense index in order of first
// appearance (a flat.Table from name to index), each edge is one packed
// index pair appended to a list, and a second flat.Table over the
// canonical pairs answers "already present?" at once. Graph places the
// half-edges into rows by counting.
type Builder struct {
	index flat.Table // vertex name → dense index
	edges flat.Table // canonical packed index pair → 0
	names []V        // dense index → vertex name
	deg   []int32    // dense index → degree
	pairs []uint64   // edges as packed index pairs, in insertion order
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return new(Builder) }

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

// AddIfAbsent inserts {u,v} unless it is a self-loop, already present or
// names an id outside [0, MaxV]. It reports whether the edge was inserted.
func (b *Builder) AddIfAbsent(u, v V) bool {
	if u == v || !ValidID(u) || !ValidID(v) {
		return false
	}
	i, j := b.vertex(u), b.vertex(v)
	n := b.edges.Len()
	b.edges.Put(uint64(min(i, j))<<32|uint64(max(i, j)), 0)
	if b.edges.Len() == n {
		return false
	}
	b.pairs = append(b.pairs, uint64(i)<<32|uint64(j))
	b.deg[i]++
	b.deg[j]++
	return true
}

// vertex returns v's dense index, giving v the next one on first sight.
func (b *Builder) vertex(v V) uint32 {
	if i, ok := b.index.Get(uint64(v)); ok {
		return uint32(i)
	}
	i := len(b.names)
	b.index.Put(uint64(v), int32(i))
	b.names = append(b.names, v)
	b.deg = append(b.deg, 0)
	return uint32(i)
}

// AddVertex ensures v exists even if isolated. It refuses an id outside
// [0, MaxV], adding nothing, and reports whether v was accepted.
func (b *Builder) AddVertex(v V) bool {
	if !ValidID(v) {
		return false
	}
	b.vertex(v)
	return true
}

// M returns the number of edges added so far.
func (b *Builder) M() int64 { return int64(len(b.pairs)) }

// Graph finalizes the builder into an immutable Graph. The names are
// sorted once; each row's offset follows from the degrees, every
// half-edge is written straight into its row, and only rows whose
// neighbors arrived out of order are sorted. The builder may be reused
// afterwards, but further Adds do not affect the returned Graph.
func (b *Builder) Graph() *Graph {
	n, m := len(b.names), int64(len(b.pairs))
	g := &Graph{vs: make([]V, n), off: make([]int64, n+1), adj: make([]V, 2*m), m: m}
	// Sort name<<32|index keys (names fit in 32 bits), then rank each index.
	keys := make([]uint64, n)
	for i, v := range b.names {
		keys[i] = uint64(v)<<32 | uint64(i)
	}
	slices.Sort(keys)
	rank := make([]int32, n)
	var end int64
	for r, k := range keys {
		i := uint32(k)
		g.vs[r], rank[i] = V(k>>32), int32(r)
		// off[r+1] starts at row r's first slot and serves as its write
		// cursor below, so it ends at the row's end.
		g.off[r+1] = end
		end += int64(b.deg[i])
		g.maxD = max(g.maxD, int(b.deg[i]))
	}
	for _, p := range b.pairs {
		i, j := uint32(p>>32), uint32(p)
		ri, rj := rank[i]+1, rank[j]+1
		g.adj[g.off[ri]] = b.names[j]
		g.off[ri]++
		g.adj[g.off[rj]] = b.names[i]
		g.off[rj]++
	}
	for r := range n {
		if row := g.adj[g.off[r]:g.off[r+1]]; !slices.IsSorted(row) {
			slices.Sort(row)
		}
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
