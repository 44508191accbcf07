package flat

import "sync"

// Copy lifecycle. A median-of-k run builds k estimator states, and a state
// built from empty grows every slab, run arena, table and sample array by
// doubling, rehashing the tables on the way. So each estimator type keeps a
// Pool of spent states: its constructor takes a spent state (or a zero one
// when the pool is empty) and calls the type's init method, which sets
// every field and keeps every buffer's capacity, and Recycle hands a copy
// back once its run has completed and its results have been read. A zero
// state and a spent state go through the same init, so a recycled copy
// behaves exactly as a fresh one. The pools are sync.Pools, so the GC
// releases the states that sit in them unused.

// Pool holds spent states of one estimator type. The zero value is an
// empty pool ready to use.
type Pool[T any] struct{ p sync.Pool }

// Get returns a spent state, or a zero one when the pool is empty.
func (p *Pool[T]) Get() *T {
	if v, ok := p.p.Get().(*T); ok {
		return v
	}
	return new(T)
}

// Put hands back a state whose run has completed and whose results have
// been read.
func (p *Pool[T]) Put(v *T) { p.p.Put(v) }
