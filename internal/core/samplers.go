package core

import (
	"adjstream/internal/graph"
	"adjstream/internal/sampling"
)

// Each estimator type recycles its copies through a flat.Pool (see the copy
// lifecycle there): NewX takes a spent state and inits it, Recycle hands it
// back.

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
