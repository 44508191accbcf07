package graph

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// This file holds the kernel index the exact counting kernels share, plus
// the bounded worker pool they shard their outer vertex loops across. The
// map-based implementations the kernels replaced are kept in oracle.go as
// reference oracles for the property tests.

// maxWorkers overrides the worker bound of the parallel exact kernels;
// 0 means runtime.GOMAXPROCS(0).
var maxWorkers atomic.Int32

// SetMaxWorkers bounds the worker pool used by the parallel exact kernels
// (Triangles, FourCycles, the load and motif computations, CountCycles).
// n <= 0 restores the default, runtime.GOMAXPROCS(0). It returns the
// previous setting (0 for the default). Kernels read the bound at call
// time; the setting is global and intended for benchmarks, tests, and
// tools that need an explicitly sequential or explicitly concurrent path.
func SetMaxWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(maxWorkers.Swap(int32(n)))
}

func kernelWorkers() int {
	if n := maxWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// parallelThreshold is the half-edge count below which sharding the outer
// vertex loop costs more than it saves.
const parallelThreshold = 1 << 12

// csr is the kernel index of a Graph. The graph's sorted names and row
// offsets are shared, not copied; on top of them it holds the rows as
// dense int32 ids (ascending in vertex name, so dense order and name order
// agree), the cached degree-rank orientation that the O(m^{3/2}) triangle
// kernel directs edges along, and a canonical indexing of the m undirected
// edges so per-edge loads can accumulate in flat slices instead of maps.
// Built lazily once per (immutable) Graph via sync.Once and shared by all
// kernels.
type csr struct {
	verts  []V     // dense id -> vertex name; the graph's own vs
	rowPtr []int64 // len n+1, the graph's own off; row v is colIdx[rowPtr[v]:rowPtr[v+1]]
	colIdx []int32 // dense neighbor ids, ascending within each row

	rank []int32 // position of each dense id in the (degree, id) order

	// Oriented adjacency: row v holds the neighbors of strictly higher
	// rank, ascending by dense id; outEdge carries the canonical edge id
	// of each oriented half-edge so triangle loads never search.
	outPtr  []int64
	outIdx  []int32
	outEdge []int64

	// Canonical edge indexing: the undirected edge {a,b} with a < b has id
	// upOff[a] + (j - upStart[a]) where j is b's index in row a. upStart[a]
	// is the first index in row a with colIdx > a; upOff[n] == m.
	upStart []int64
	upOff   []int64

	scratch sync.Pool // *codegScratch, one per concurrent kernel worker
}

func (g *Graph) csr() *csr {
	g.csrOnce.Do(func() { g.csrIx = buildCSR(g) })
	return g.csrIx
}

func buildCSR(g *Graph) *csr {
	n := len(g.vs)
	if int64(n) > math.MaxInt32 || 2*g.m > math.MaxInt32 {
		// 2^31 half-edges is >16 GiB of adjacency before any kernel runs;
		// the int32 column index is a deliberate cache-density choice.
		panic("graph: CSR index supports at most 2^31 half-edges")
	}
	// The graph's own rows and names are the index's; only the dense
	// column ids, rank, orientation and edge ids are built here.
	c := &csr{verts: g.vs, rowPtr: g.off}
	if c.rowPtr == nil {
		c.rowPtr = make([]int64, 1)
	}
	c.colIdx = make([]int32, len(g.adj))
	c.upStart = make([]int64, n)
	c.upOff = make([]int64, n+1)
	// Only the neighbors above each vertex are looked up: the edge {i,j}
	// with i < j also fills j's part below j, whose next slot is low[j],
	// and rows are visited in ascending i, the order that part is sorted in.
	low := slices.Clone(c.rowPtr[:n])
	for i, v := range g.vs {
		row := g.row(i)
		up, _ := slices.BinarySearch(row, v) // the first neighbor above v
		c.upStart[i] = c.rowPtr[i] + int64(up)
		c.upOff[i+1] = c.upOff[i] + int64(len(row)-up)
		for p, u := range row[up:] {
			j := g.index(u)
			c.colIdx[c.upStart[i]+int64(p)] = int32(j)
			c.colIdx[low[j]] = int32(i)
			low[j]++
		}
	}

	// Degree-rank order: by (degree, id). Directing each edge toward the
	// higher rank bounds the out-degree by O(√m).
	// Packed as degree<<32|id, the keys sort in exactly that order.
	keys := make([]uint64, n)
	for v := range keys {
		keys[v] = uint64(c.degree(int32(v)))<<32 | uint64(v)
	}
	slices.Sort(keys)
	c.rank = make([]int32, n)
	for p, k := range keys {
		c.rank[uint32(k)] = int32(p)
	}

	c.outPtr = make([]int64, n+1)
	for v := 0; v < n; v++ {
		cnt := int64(0)
		for _, u := range c.row(int32(v)) {
			if c.rank[u] > c.rank[v] {
				cnt++
			}
		}
		c.outPtr[v+1] = c.outPtr[v] + cnt
	}
	c.outIdx = make([]int32, c.outPtr[n])
	c.outEdge = make([]int64, c.outPtr[n])
	for v := 0; v < n; v++ {
		p := c.outPtr[v]
		for _, u := range c.row(int32(v)) {
			if c.rank[u] > c.rank[int32(v)] {
				c.outIdx[p] = u
				c.outEdge[p] = c.edgeID(int32(v), u)
				p++
			}
		}
	}
	return c
}

func (c *csr) degree(v int32) int { return int(c.rowPtr[v+1] - c.rowPtr[v]) }

// row returns the dense neighbor ids of v, ascending.
func (c *csr) row(v int32) []int32 { return c.colIdx[c.rowPtr[v]:c.rowPtr[v+1]] }

// out returns the higher-rank neighbors of v and their canonical edge ids.
func (c *csr) out(v int32) ([]int32, []int64) {
	return c.outIdx[c.outPtr[v]:c.outPtr[v+1]], c.outEdge[c.outPtr[v]:c.outPtr[v+1]]
}

// edgeID returns the canonical id of the undirected edge between u and v.
func (c *csr) edgeID(u, v int32) int64 {
	a, b := min(u, v), max(u, v)
	j, _ := slices.BinarySearch(c.colIdx[c.upStart[a]:c.rowPtr[a+1]], b)
	return c.upOff[a] + int64(j)
}

// hasArc reports whether v appears in u's row, by binary search.
func (c *csr) hasArc(u, v int32) bool {
	_, ok := slices.BinarySearch(c.row(u), v)
	return ok
}

// forEachUpEdge calls fn for every canonical edge (a < b) with its id, in
// id order.
func (c *csr) forEachUpEdge(fn func(id int64, a, b int32)) {
	for a := 0; a < len(c.verts); a++ {
		for j := c.upStart[a]; j < c.rowPtr[a+1]; j++ {
			fn(c.upOff[a]+(j-c.upStart[a]), int32(a), c.colIdx[j])
		}
	}
}

// triangleScan enumerates the triangles whose lowest-rank vertex is v by
// merge-intersecting v's oriented row with each out-neighbor's oriented
// row. fn receives the dense vertices (u the out-neighbor, w the common
// neighbor) and the canonical edge ids of {v,u}, {v,w}, {u,w}. The visit
// order matches the map-based reference enumeration exactly.
func (c *csr) triangleScan(v int32, fn func(u, w int32, evu, evw, euw int64)) {
	ov, oe := c.out(v)
	for p, u := range ov {
		ou, ue := c.out(u)
		i, j := 0, 0
		for i < len(ov) && j < len(ou) {
			switch {
			case ov[i] < ou[j]:
				i++
			case ov[i] > ou[j]:
				j++
			default:
				fn(u, ov[i], oe[p], oe[i], ue[j])
				i++
				j++
			}
		}
	}
}

// codegScratch is the per-worker scratch for the co-degree (pair counting)
// kernels: cnt is a dense 2-walk counter and touched records the nonzero
// entries so resets cost O(touched), not O(n).
type codegScratch struct {
	cnt     []int32
	touched []int32
}

func (s *codegScratch) reset() {
	for _, b := range s.touched {
		s.cnt[b] = 0
	}
	s.touched = s.touched[:0]
}

func (c *csr) getScratch() *codegScratch {
	if s, ok := c.scratch.Get().(*codegScratch); ok && len(s.cnt) >= len(c.verts) {
		return s
	}
	return &codegScratch{cnt: make([]int32, len(c.verts))}
}

func (c *csr) putScratch(s *codegScratch) {
	s.reset()
	c.scratch.Put(s)
}

// twoWalks fills s.cnt[b] with the number of 2-walks a→v→b for every b ≠ a,
// i.e. the co-degree of the pair {a,b}. Callers must s.reset() (or zero the
// touched entries themselves) before reuse.
func (c *csr) twoWalks(a int32, s *codegScratch) {
	for _, v := range c.row(a) {
		for _, b := range c.row(v) {
			if b == a {
				continue
			}
			if s.cnt[b] == 0 {
				s.touched = append(s.touched, b)
			}
			s.cnt[b]++
		}
	}
}

// reduceShards runs body(acc, v) for every dense vertex v in [0, n),
// sharded across up to SetMaxWorkers/GOMAXPROCS goroutines in dynamically
// scheduled contiguous chunks; each worker owns one accumulator and fold
// combines them afterwards, first-to-last. Every kernel's fold is an exact
// integer merge (sums of int64 counters, keyed by index or by vertex name),
// so the result is bit-identical to the sequential path regardless of how
// chunks land on workers. Small inputs run inline with a single
// accumulator and no goroutines — that is the sequential path the
// benchmarks pin.
func reduceShards[A any](c *csr, newAcc func() *A, body func(acc *A, v int32), fold func(dst, src *A)) *A {
	n := len(c.verts)
	w := kernelWorkers()
	if w > n {
		w = n
	}
	if w <= 1 || len(c.colIdx) < parallelThreshold {
		acc := newAcc()
		for v := 0; v < n; v++ {
			body(acc, int32(v))
		}
		return acc
	}
	chunk := n / (w * 8)
	if chunk < 16 {
		chunk = 16
	}
	var next atomic.Int64
	accs := make([]*A, w)
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			acc := newAcc()
			accs[i] = acc
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				for v := lo; v < hi; v++ {
					body(acc, int32(v))
				}
			}
		}(i)
	}
	wg.Wait()
	out := accs[0]
	for _, a := range accs[1:] {
		fold(out, a)
	}
	return out
}
