package arbitrary

import (
	"slices"

	"adjstream/internal/flat"
	"adjstream/internal/graph"
)

// The estimators keep their state in flat arrays under int32 ids, looked up
// through flat.Table, so a copy makes no allocation per pair or per vertex:
// only its arrays and tables grow, by doubling. Each estimator type recycles
// its copies through a flat.Pool: its init empties every array and table in
// place, keeping their memory, so a copy built on a spent state does not
// grow again.

// adjacency is the sampled-edge adjacency of pass one: each vertex's
// neighbours in the order they were added, as a contiguous run of one
// arena. A full run moves to a block twice its size at the arena's end and
// leaves its old block behind; the arena is filled in one pass, so nothing
// reuses the hole.
type adjacency struct {
	index flat.Table // vertex → slot in runs
	runs  []run
	arena []uint32
}

// run is one vertex's list: n ids at arena[off:], in a block of cap ids.
type run struct{ off, n, cap int32 }

// nbrs returns v's neighbours in insertion order. The slice is valid until
// the next add.
func (a *adjacency) nbrs(v graph.V) []uint32 {
	slot, ok := a.index.Get(uint64(v))
	if !ok {
		return nil
	}
	r := a.runs[slot]
	return a.arena[r.off : r.off+r.n]
}

// reset empties a, keeping its memory.
func (a *adjacency) reset() {
	a.index.Reset()
	a.runs = a.runs[:0]
	a.arena = a.arena[:0]
}

// degree returns the number of neighbours added to v.
func (a *adjacency) degree(v graph.V) int { return len(a.nbrs(v)) }

// add appends w to v's neighbours.
func (a *adjacency) add(v, w graph.V) {
	slot, ok := a.index.Get(uint64(v))
	if !ok {
		slot = int32(len(a.runs))
		a.runs = append(a.runs, run{})
		a.index.Put(uint64(v), slot)
	}
	r := &a.runs[slot]
	if r.n == r.cap {
		// The new block's ids past the n copied ones are written before
		// they are read, so extending the arena within its capacity
		// leaves them unzeroed.
		size := max(4, 2*r.cap)
		off := int32(len(a.arena))
		a.arena = slices.Grow(a.arena, int(size))[:off+size]
		copy(a.arena[off:], a.arena[r.off:r.off+r.n])
		r.off, r.cap = off, size
	}
	a.arena[r.off+r.n] = uint32(w)
	r.n++
}

// csr groups values by vertex, built once from a finished sequence and
// then only read: the values of vertex v are vals[off[i]:off[i+1]] with
// i = at[v], in the order the sequence gave them.
type csr[T any] struct {
	at   flat.Table // vertex → row
	off  []int32
	vals []T
}

// reset empties c, keeping its memory.
func (c *csr[T]) reset() {
	c.at.Reset()
	c.off = c.off[:0]
	c.vals = c.vals[:0]
}

// row returns v's values, or nil if it has none.
func (c *csr[T]) row(v graph.V) []T {
	i, ok := c.at.Get(uint64(v))
	if !ok {
		return nil
	}
	return c.vals[c.off[i]:c.off[i+1]]
}

// build fills c, emptied first, from the n entries entry(0), …,
// entry(n−1), each a vertex and a value for its row.
func (c *csr[T]) build(n int, entry func(i int) (graph.V, T)) {
	// Count each row's entries into off[row+1], sum them into row starts,
	// place each value at its row's cursor off[row], and shift the cursors,
	// which end at the next row's start, back by one row.
	c.reset()
	c.off = append(c.off, 0)
	for i := 0; i < n; i++ {
		v, _ := entry(i)
		r, ok := c.at.Get(uint64(v))
		if !ok {
			r = int32(len(c.off) - 1)
			c.at.Put(uint64(v), r)
			c.off = append(c.off, 0)
		}
		c.off[r+1]++
	}
	for r := 1; r < len(c.off); r++ {
		c.off[r] += c.off[r-1]
	}
	c.vals = slices.Grow(c.vals, n)[:n] // every entry is placed below
	for i := 0; i < n; i++ {
		v, val := entry(i)
		r, _ := c.at.Get(uint64(v))
		c.vals[c.off[r]] = val
		c.off[r]++
	}
	copy(c.off[1:], c.off)
	c.off[0] = 0
}
