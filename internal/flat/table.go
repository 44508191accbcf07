// Package flat holds the estimator-state kit shared by the core and
// arbitrary-order estimators: Table, the one hash index they key their
// state on, an open-addressing map from uint64 keys (a vertex id, or an
// edge packed by graph-order endpoints into one word) to int32 slot ids;
// and Pool, through which each estimator type recycles its spent copies.
// The graph layer uses Table too: graph.Builder maps vertex names to dense
// indices and keeps its edge set on packed index pairs in two of them.
//
// It is a power-of-two array of (key, value) slots probed linearly from a
// Fibonacci hash of the key, in the manner of a streaming k-mer counter's
// masked table. Deletion shifts the rest of the probe run back instead of
// leaving a tombstone, so a table that sees endless insert/delete churn
// (bottom-k evictions, reservoir swaps) never degrades and never
// reallocates once it has grown to its peak occupancy. The array grows on
// demand, doubling at 3/4 load; nothing is sized up front, so a table's
// memory follows what it holds, not a requested budget. Reset empties a
// table and keeps its array, so a table reused for another run of the same
// shape does not grow again.
package flat

import "math/bits"

// Table maps uint64 keys to non-negative int32 values. The zero value is an
// empty table ready to use.
type Table struct {
	slots []slot
	n     int
	shift uint // 64 − log2(len(slots))
}

type slot struct {
	key uint64
	val int32 // stored value + 1; 0 marks an empty slot
}

// home returns the first slot probed for key.
func (t *Table) home(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) >> t.shift)
}

// Len returns the number of keys held.
func (t *Table) Len() int { return t.n }

// Get returns the value stored under key.
func (t *Table) Get(key uint64) (int32, bool) {
	if t.n == 0 {
		return 0, false
	}
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.val == 0 {
			return 0, false
		}
		if s.key == key {
			return s.val - 1, true
		}
	}
}

// Put stores val (which must be ≥ 0) under key, replacing any previous
// value.
func (t *Table) Put(key uint64, val int32) {
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.val == 0 {
			*s = slot{key, val + 1}
			t.n++
			return
		}
		if s.key == key {
			s.val = val + 1
			return
		}
	}
}

// Delete removes key if present. Every later entry of the probe run whose
// home lies at or before the hole moves back into it, so lookups stay
// correct without tombstones.
func (t *Table) Delete(key uint64) {
	if t.n == 0 {
		return
	}
	mask := len(t.slots) - 1
	i := t.home(key)
	for t.slots[i].key != key || t.slots[i].val == 0 {
		if t.slots[i].val == 0 {
			return
		}
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t.slots[j].val != 0; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = slot{}
	t.n--
}

// Reset removes every key and keeps the slot array, so refilling the table
// to its previous size neither grows nor rehashes it. Slot order, and so
// AppendKeys order, depends on the array's size.
func (t *Table) Reset() {
	if t.n > 0 {
		clear(t.slots)
		t.n = 0
	}
}

// AppendKeys appends every key to dst, in slot order, and returns it.
func (t *Table) AppendKeys(dst []uint64) []uint64 {
	for _, s := range t.slots {
		if s.val != 0 {
			dst = append(dst, s.key)
		}
	}
	return dst
}

// grow doubles the slot array (16 slots at first use) and reinserts.
func (t *Table) grow() {
	old := t.slots
	size := 16
	if len(old) > 0 {
		size = 2 * len(old)
	}
	t.slots = make([]slot, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	t.n = 0
	for _, s := range old {
		if s.val != 0 {
			t.Put(s.key, s.val-1)
		}
	}
}
