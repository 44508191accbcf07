package sampling

import "math/rand/v2"

// Reservoir maintains a uniformly random size-k subset of the items offered
// so far (all items if fewer than k have been offered), using classic
// reservoir sampling. It is deterministic given the seed.
type Reservoir[T any] struct {
	k     int
	n     int64 // items offered
	items []T
	rng   *rand.Rand
}

// NewReservoir returns a reservoir of capacity k seeded deterministically.
// k must be positive.
func NewReservoir[T any](k int, seed uint64) *Reservoir[T] {
	if k <= 0 {
		panic("sampling: reservoir capacity must be positive")
	}
	return &Reservoir[T]{
		k:   k,
		rng: rand.New(rand.NewPCG(seed, seed^0xe7037ed1a0b428db)),
	}
}

// Offer presents an item. It reports whether the item was accepted into the
// reservoir and, if accepting evicted a previous item, returns that item
// with evicted=true.
func (r *Reservoir[T]) Offer(item T) (victim T, evicted, accepted bool) {
	switch slot := r.admit(); {
	case slot < 0:
		return victim, false, false
	case slot == len(r.items):
		r.items = append(r.items, item)
		return victim, false, true
	default:
		victim, r.items[slot] = r.items[slot], item
		return victim, true, true
	}
}

// OfferSlot is Offer for callers that keep per-item state beside the
// reservoir, indexed like Items(): it returns the index the item now
// occupies (-1 if it was rejected) and whether it replaced the item
// previously at that index. The random decisions are Offer's.
func (r *Reservoir[T]) OfferSlot(item T) (slot int, replaced bool) {
	slot = r.admit()
	switch {
	case slot < 0:
	case slot == len(r.items):
		r.items = append(r.items, item)
	default:
		r.items[slot] = item
		replaced = true
	}
	return slot, replaced
}

// admit counts one offered item and returns the index it takes:
// len(items) to append, an occupied index to replace, or -1 to reject.
func (r *Reservoir[T]) admit() int {
	r.n++
	if len(r.items) < r.k {
		return len(r.items)
	}
	j := r.rng.Int64N(r.n)
	if j >= int64(r.k) {
		return -1
	}
	return int(j)
}

// Items returns the current sample. The slice is shared; do not modify.
func (r *Reservoir[T]) Items() []T { return r.items }

// Len returns the current sample size.
func (r *Reservoir[T]) Len() int { return len(r.items) }

// Cap returns the reservoir capacity k.
func (r *Reservoir[T]) Cap() int { return r.k }

// Offered returns the total number of items offered so far.
func (r *Reservoir[T]) Offered() int64 { return r.n }

// Saturated reports whether more items have been offered than fit, i.e. the
// sample is a strict subset of the offered items.
func (r *Reservoir[T]) Saturated() bool { return r.n > int64(r.k) }
