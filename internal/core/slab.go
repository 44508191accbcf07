package core

import (
	"cmp"
	"math/bits"
	"slices"

	"adjstream/internal/flat"
	"adjstream/internal/graph"
)

// The estimators' tracked state — sampled-edge records, H/T loads, sampled
// wedges — lives in slabs: value arrays under int32 slot ids. Each entry
// sits on the lists of its two endpoint vertices, and a vertex's list is a
// contiguous run of slot ids holding exactly its live entries, so nothing
// dead is ever walked. Two kinds of slab share that layout:
//
//   - slab keeps every list in the order its entries were added: removal
//     closes the gap and leaves the order of the rest alone. A removed slot
//     is reused by a later entry; refs carry the slot's generation so a
//     reference to the removed entry stays dead. Records live here, because
//     the order in which they close feeds the pair reservoir.
//   - bag keeps no order, because its entries only count: removal moves the
//     list's last id into the hole, in O(1) since each entry records its
//     index in both of its lists. Loads and wedges live here.
//
// Slabs and runs grow as entries are added — they are never sized from a
// budget. Their init methods empty them in place and keep that memory, so
// a copy built on spent state (see pool) does not grow again.

// ref names one entry of a slab: its slot and the slot's generation when
// the entry was added.
type ref struct {
	id  int32
	gen uint32
}

// run is one vertex's list: n ids at arena[off:], in a block of cap ids.
type run struct{ off, n, cap int32 }

// vertexLists maps each vertex with live entries to its lists, one per
// slab threaded through it (kind 0 and kind 1), so that one lookup per
// stream item serves every slab. The runs share one arena of power-of-two
// blocks; a released block is chained, by its first id, onto the spare
// list of its size.
type vertexLists struct {
	index flat.Table // vertex → slot in runs
	runs  [][2]run
	free  []int32 // released slots of runs
	arena []int32
	spare [32]int32 // per log2 block size: offset+1 of a released block, 0 if none
}

// reset empties the lists, keeping the memory of the index, the runs and
// the arena.
func (l *vertexLists) reset() {
	l.index.Reset()
	l.runs = l.runs[:0]
	l.free = l.free[:0]
	l.arena = l.arena[:0]
	l.spare = [32]int32{}
}

// find returns v's lists, or nil when v has no live entries.
func (l *vertexLists) find(v graph.V) *[2]run {
	slot, ok := l.index.Get(uint64(v))
	if !ok {
		return nil
	}
	return &l.runs[slot]
}

// ids returns the ids of run r. The slice is valid until the lists change.
func (l *vertexLists) ids(r run) []int32 { return l.arena[r.off : r.off+r.n] }

// add appends id to the kind-th list of v and returns its index there.
func (l *vertexLists) add(v graph.V, kind int, id int32) int32 {
	slot, ok := l.index.Get(uint64(v))
	if !ok {
		if n := len(l.free); n > 0 {
			slot, l.free = l.free[n-1], l.free[:n-1]
		} else {
			slot = int32(len(l.runs))
			l.runs = append(l.runs, [2]run{})
		}
		l.index.Put(uint64(v), slot)
	}
	r := &l.runs[slot][kind]
	if r.n == r.cap {
		size := max(4, 2*r.cap)
		off := l.alloc(size)
		copy(l.arena[off:], l.ids(*r))
		l.release(r.off, r.cap)
		r.off, r.cap = off, size
	}
	l.arena[r.off+r.n] = id
	r.n++
	return r.n - 1
}

// remove deletes id from the kind-th list of v, keeping the order of the
// rest.
func (l *vertexLists) remove(v graph.V, kind int, id int32) {
	slot, _ := l.index.Get(uint64(v))
	r := &l.runs[slot][kind]
	ids := l.ids(*r)
	i := slices.Index(ids, id)
	copy(ids[i:], ids[i+1:])
	r.n--
	l.tidy(v, slot)
}

// swapRemove deletes the i-th id of the kind-th list of v by moving the
// list's last id into its place, and returns the id it moved (-1 when the
// i-th was the last).
func (l *vertexLists) swapRemove(v graph.V, kind int, i int32) (moved int32) {
	slot, _ := l.index.Get(uint64(v))
	r := &l.runs[slot][kind]
	r.n--
	moved = -1
	if i != r.n {
		moved = l.arena[r.off+r.n]
		l.arena[r.off+i] = moved
	}
	l.tidy(v, slot)
	return moved
}

// clear empties the kind-th list of v, if v has one.
func (l *vertexLists) clear(v graph.V, kind int) {
	if slot, ok := l.index.Get(uint64(v)); ok {
		l.runs[slot][kind].n = 0
		l.tidy(v, slot)
	}
}

// tidy releases v's lists, whose runs are at slot, once all of them are
// empty.
func (l *vertexLists) tidy(v graph.V, slot int32) {
	rs := &l.runs[slot]
	if rs[0].n != 0 || rs[1].n != 0 {
		return
	}
	l.release(rs[0].off, rs[0].cap)
	l.release(rs[1].off, rs[1].cap)
	*rs = [2]run{}
	l.index.Delete(uint64(v))
	l.free = append(l.free, slot)
}

// alloc returns the offset of a block of size ids (a power of two),
// reusing a released block of that size when there is one. A new block
// extends the arena, within its capacity when it fits: every id of a block
// is written before it is read, so it need not be zeroed.
func (l *vertexLists) alloc(size int32) int32 {
	k := bits.TrailingZeros32(uint32(size))
	if h := l.spare[k]; h != 0 {
		l.spare[k] = l.arena[h-1]
		return h - 1
	}
	off := int32(len(l.arena))
	if end := int(off + size); end <= cap(l.arena) {
		l.arena = l.arena[:end]
	} else {
		l.arena = append(l.arena, make([]int32, size)...)
	}
	return off
}

// release puts the block at off back on the spare list of its size.
func (l *vertexLists) release(off, size int32) {
	if size == 0 {
		return
	}
	k := bits.TrailingZeros32(uint32(size))
	l.arena[off] = l.spare[k]
	l.spare[k] = off + 1
}

// node is one slab entry: a payload and its two endpoints. epoch and seq
// record the adjacency list in which one endpoint last appeared and the
// order of that appearance among the list's first touches.
type node[T any] struct {
	val    T
	at     [2]uint32
	gen    uint32 // bumped when the entry is unlinked
	epoch  uint32
	seq    uint32
	linked bool
}

// closing is an entry both of whose endpoints appeared in the current
// list, with the sequence number of the first of the two appearances.
type closing struct {
	ref
	seq uint32
}

// slab holds entries on the kind-th lists of a vertexLists, plus the
// presence state of the adjacency list being read. A list names each
// neighbour at most once, so an entry touched twice in one list has seen
// both of its endpoints: the second touch records it in closed, and
// finishList reports closed entries in the order of their first touch.
type slab[T any] struct {
	ent    []node[T]
	lists  *vertexLists
	kind   int
	live   int
	epoch  uint32 // current list; entries touched in it carry this epoch
	seq    uint32 // first touches so far in the current list
	closed []closing
}

// init empties the slab and threads it through the kind-th lists of lists,
// keeping the memory of its entries. Entries are zeroed again as put
// reaches them, and the epoch restarts at 1.
func (s *slab[T]) init(lists *vertexLists, kind int) {
	s.ent = s.ent[:0]
	s.lists, s.kind, s.live = lists, kind, 0
	s.epoch, s.seq = 1, 0
	s.closed = s.closed[:0]
}

// ref returns the current reference to slot id.
func (s *slab[T]) ref(id int32) ref { return ref{id, s.ent[id].gen} }

// alive reports whether r still names a linked entry.
func (s *slab[T]) alive(r ref) bool {
	n := &s.ent[r.id]
	return n.linked && n.gen == r.gen
}

// put stores an entry with endpoints a ≠ b in slot id, which must not be
// linked, growing the slab to reach it, and appends it to a's and b's
// lists.
func (s *slab[T]) put(id int32, a, b graph.V, val T) {
	for int(id) >= len(s.ent) {
		s.ent = append(s.ent, node[T]{})
	}
	n := &s.ent[id]
	n.val, n.at, n.epoch, n.linked = val, [2]uint32{uint32(a), uint32(b)}, 0, true
	s.lists.add(a, s.kind, id)
	s.lists.add(b, s.kind, id)
	s.live++
}

// unlink removes slot id's entry from both of its lists (a no-op if it is
// not linked) and bumps the slot's generation.
func (s *slab[T]) unlink(id int32) {
	n := &s.ent[id]
	if !n.linked {
		return
	}
	s.lists.remove(graph.V(n.at[0]), s.kind, id)
	s.lists.remove(graph.V(n.at[1]), s.kind, id)
	n.linked = false
	n.gen++
	s.live--
}

// detach takes every entry on v's list off both of its lists, keeping the
// rest of each list in order. The entries stay linked — refs to them still
// read alive — but no touch reaches them again, and they must not be
// unlinked.
func (s *slab[T]) detach(v graph.V) {
	e := s.lists.find(v)
	if e == nil {
		return
	}
	for _, id := range s.lists.ids(e[s.kind]) {
		at := s.ent[id].at
		other := at[0]
		if other == uint32(v) {
			other = at[1]
		}
		s.lists.remove(graph.V(other), s.kind, id)
	}
	s.lists.clear(v, s.kind)
}

// touch marks one endpoint's appearance in the current adjacency list on
// every entry of ids, that endpoint's list.
func (s *slab[T]) touch(ids []int32) {
	for _, id := range ids {
		n := &s.ent[id]
		if n.epoch != s.epoch {
			n.epoch, n.seq = s.epoch, s.seq
			s.seq++
		} else {
			s.closed = append(s.closed, closing{ref{id, n.gen}, n.seq})
		}
	}
}

// finishList calls fn, in first-touch order, for every entry both of whose
// endpoints appeared in the list that just ended and that is still linked,
// then starts the next list.
func (s *slab[T]) finishList(fn func(id int32)) {
	slices.SortFunc(s.closed, func(a, b closing) int { return cmp.Compare(a.seq, b.seq) })
	for _, c := range s.closed {
		if s.ent[c.id].gen == c.gen {
			fn(c.id)
		}
	}
	s.closed = s.closed[:0]
	s.epoch++
	s.seq = 0
}

// bag holds entries on the kind-th lists of a vertexLists in no particular
// order. Its entries count lists rather than report them: an entry touched
// twice while one adjacency list is read has seen both of its endpoints,
// and closes says so at the second touch, so there is nothing to collect or
// sort when the list ends. The caller frees and reuses slots.
type bag[T any] struct {
	ent   []bagNode[T]
	lists *vertexLists
	kind  int
	live  int
	epoch uint32 // current list; entries touched in it carry this epoch
}

// bagNode is one bag entry: a payload, its two endpoints, its index in
// each endpoint's list, and the list in which an endpoint last appeared.
type bagNode[T any] struct {
	val   T
	at    [2]uint32
	idx   [2]int32
	epoch uint32
}

// init empties the bag and threads it through the kind-th lists of lists,
// keeping the memory of its entries. Entries are zeroed again as put
// reaches them, and the epoch restarts at 1.
func (b *bag[T]) init(lists *vertexLists, kind int) {
	b.ent = b.ent[:0]
	b.lists, b.kind, b.live = lists, kind, 0
	b.epoch = 1
}

// put stores an entry with endpoints x ≠ y in slot id, which must be free,
// growing the bag to reach it, and adds it to x's and y's lists.
func (b *bag[T]) put(id int32, x, y graph.V, val T) {
	for int(id) >= len(b.ent) {
		b.ent = append(b.ent, bagNode[T]{})
	}
	n := &b.ent[id]
	n.val, n.at, n.epoch = val, [2]uint32{uint32(x), uint32(y)}, 0
	n.idx[0] = b.lists.add(x, b.kind, id)
	n.idx[1] = b.lists.add(y, b.kind, id)
	b.live++
}

// remove takes the entry in slot id off both of its lists, moving each
// list's last entry into its place; the slot is then free.
func (b *bag[T]) remove(id int32) {
	n := &b.ent[id]
	for side, v := range n.at {
		moved := b.lists.swapRemove(graph.V(v), b.kind, n.idx[side])
		if moved < 0 {
			continue
		}
		m := &b.ent[moved]
		if m.at[0] == v {
			m.idx[0] = n.idx[side]
		} else {
			m.idx[1] = n.idx[side]
		}
	}
	b.live--
}

// closes marks one endpoint's appearance in the current adjacency list on
// the entry in slot id and reports whether its other endpoint appeared in
// that list too.
func (b *bag[T]) closes(id int32) bool {
	n := &b.ent[id]
	if n.epoch == b.epoch {
		return true
	}
	n.epoch = b.epoch
	return false
}

// nextList starts a new adjacency list.
func (b *bag[T]) nextList() { b.epoch++ }
