package core

import (
	"sync"

	"adjstream/internal/graph"
	"adjstream/internal/sampling"
)

// Copy lifecycle. A median-of-k run builds k estimator states, and a state
// built from empty grows every slab, run arena, table and sample array by
// doubling, rehashing the tables on the way. So each estimator type keeps a
// pool of spent states: its constructor takes a spent state (or a zero one
// when the pool is empty) and calls the type's init method, which sets
// every field and keeps every buffer's capacity, and Recycle hands a copy
// back once its run has completed and its results have been read. A zero
// state and a spent state go through the same init, so a recycled copy
// behaves exactly as a fresh one. The pools are sync.Pools, so the GC
// releases the states that sit in them unused.

// pool holds spent states of one estimator type.
type pool[T any] struct{ p sync.Pool }

// get returns a spent state, or a zero one when the pool is empty.
func (p *pool[T]) get() *T {
	if v, ok := p.p.Get().(*T); ok {
		return v
	}
	return new(T)
}

// put hands back a state whose run has completed and whose results have
// been read.
func (p *pool[T]) put(v *T) { p.p.Put(v) }

// samplers holds both edge sampler kinds, so that a state keeps the memory
// of either whichever kind its next run asks for.
type samplers struct {
	bk sampling.BottomK
	fp sampling.FixedProb
}

// init readies the sampler a config selects — bottom-k when size > 0,
// otherwise hash sampling at rate prob — and returns it.
func (s *samplers) init(size int, prob float64, seed uint64, onEvict func(graph.Edge)) (sampling.EdgeSampler, error) {
	if size > 0 {
		s.bk.Init(size, seed, onEvict)
		return &s.bk, nil
	}
	if err := s.fp.Init(prob, seed); err != nil {
		return nil, err
	}
	return &s.fp, nil
}
