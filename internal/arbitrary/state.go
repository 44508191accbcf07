package arbitrary

import (
	"slices"

	"adjstream/internal/flat"
	"adjstream/internal/graph"
)

// The estimators keep their state in flat arrays under dense int32 vertex
// ids, so a copy makes no allocation per pair or per vertex: only its
// arrays and tables grow, by doubling. A copy's vertexIndex gives each
// vertex it touches an id on first use; the adjacency runs, CSR rows and
// pass-three marks are arrays indexed by those ids, so a vertex costs one
// hash lookup per edge and no other table. Each estimator type recycles
// its copies through a flat.Pool: its init empties every array and table
// in place, keeping their memory, so a copy built on a spent state does
// not grow again.

// vertexIndex gives each vertex a copy touches a dense id, 0, 1, 2, … in
// order of first use, and keeps the names by id.
type vertexIndex struct {
	ids   flat.Table // vertex → id
	names []graph.V  // id → vertex
}

// reset empties x, keeping its memory.
func (x *vertexIndex) reset() {
	x.ids.Reset()
	x.names = x.names[:0]
}

// len returns the number of ids given out.
func (x *vertexIndex) len() int { return len(x.names) }

// id returns v's id, if v has one.
func (x *vertexIndex) id(v graph.V) (int32, bool) { return x.ids.Get(uint64(v)) }

// intern returns v's id, giving v the next one on first use.
func (x *vertexIndex) intern(v graph.V) int32 {
	id, ok := x.ids.Get(uint64(v))
	if !ok {
		id = int32(len(x.names))
		x.ids.Put(uint64(v), id)
		x.names = append(x.names, v)
	}
	return id
}

// extend returns s lengthened to n zero-valued entries past its length,
// keeping its memory; it returns s unchanged when it is already as long.
func extend[T any](s []T, n int) []T {
	old := len(s)
	if n <= old {
		return s
	}
	s = slices.Grow(s, n-old)[:n]
	clear(s[old:])
	return s
}

// adjacency is the sampled-edge adjacency of pass one: each vertex's
// neighbour ids in the order they were added, as a contiguous run of one
// arena, with the runs indexed by vertex id. A full run moves to a block
// twice its size at the arena's end and leaves its old block behind; the
// arena is filled in one pass, so nothing reuses the hole.
type adjacency struct {
	runs  []run // by vertex id; an id past the end has no neighbours
	arena []int32
}

// run is one vertex's list: n ids at arena[off:], in a block of cap ids.
type run struct{ off, n, cap int32 }

// nbrs returns v's neighbours in insertion order. The slice is valid until
// the next add.
func (a *adjacency) nbrs(v int32) []int32 {
	if int(v) >= len(a.runs) {
		return nil
	}
	r := a.runs[v]
	return a.arena[r.off : r.off+r.n]
}

// reset empties a, keeping its memory.
func (a *adjacency) reset() {
	a.runs = a.runs[:0]
	a.arena = a.arena[:0]
}

// add appends w to v's neighbours.
func (a *adjacency) add(v, w int32) {
	a.runs = extend(a.runs, int(v)+1)
	r := &a.runs[v]
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
	a.arena[r.off+r.n] = w
	r.n++
}

// csr groups values by row, a vertex id, built once from a finished
// sequence and then only read: the values of row r are
// vals[off[r]:off[r+1]], in the order the sequence gave them.
type csr[T any] struct {
	off  []int32
	vals []T
}

// row returns r's values; a row past the last one built is empty.
func (c *csr[T]) row(r int32) []T {
	if int(r)+1 >= len(c.off) {
		return nil
	}
	return c.vals[c.off[r]:c.off[r+1]]
}

// build fills c, emptied first, with rows 0, …, rows−1 from the n entries
// entry(0), …, entry(n−1), each a row below rows and a value for it.
func (c *csr[T]) build(rows, n int, entry func(i int) (int32, T)) {
	// Count each row's entries into off[row+1], sum them into row starts,
	// place each value at its row's cursor off[row], and shift the cursors,
	// which end at the next row's start, back by one row.
	c.off = extend(c.off[:0], rows+1)
	for i := 0; i < n; i++ {
		r, _ := entry(i)
		c.off[r+1]++
	}
	for r := 1; r <= rows; r++ {
		c.off[r] += c.off[r-1]
	}
	c.vals = slices.Grow(c.vals[:0], n)[:n] // every entry is placed below
	for i := 0; i < n; i++ {
		r, val := entry(i)
		c.vals[c.off[r]] = val
		c.off[r]++
	}
	copy(c.off[1:], c.off)
	c.off[0] = 0
}
