package core

import (
	"adjstream/internal/graph"
	"adjstream/internal/sampling"
	"adjstream/internal/space"
	"adjstream/internal/stream"
)

// NaiveTwoPass is the simple two-pass edge-sampling algorithm of Section 2.1
// (due to McGregor, Vorotnikova and Vu): sample m′ edges in pass one and
// count, across both passes, every triangle containing a sampled edge. Its
// estimate scale·N/3 is unbiased, and with m′ = Θ(m/T^{2/3}) it reliably
// distinguishes triangle-free graphs from graphs with at least T triangles
// (Table 1 row 5). As a (1±ε) estimator it fails on heavy-edge graphs — the
// variance blowup that motivates the lightest-edge rule (ablation A1).
// With m′ = Θ(m^{3/2}/T) it serves as the Table 1 row-3 representative.
type NaiveTwoPass struct {
	sampler sampling.EdgeSampler // one of samp's two
	samp    samplers
	st      triState         // records only
	onEvict func(graph.Edge) // n.evicted, bound once

	pass  int
	pos   int
	items int64
	m     int64
	found int64 // N = Σ_{e∈S} T(e)
	meter space.Meter
}

var _ stream.Estimator = (*NaiveTwoPass)(nil)

var naiveTwoPasses pool[NaiveTwoPass]

// NewNaiveTwoPass validates cfg and returns the algorithm, built on a
// recycled state when there is one. PairCap is ignored (only a counter is
// kept per discovery).
func NewNaiveTwoPass(cfg TriangleConfig) (*NaiveTwoPass, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := naiveTwoPasses.get()
	if err := n.init(cfg); err != nil {
		return nil, err
	}
	return n, nil
}

// init makes n a fresh estimator for the validated cfg, keeping the memory
// of its state.
func (n *NaiveTwoPass) init(cfg TriangleConfig) error {
	if n.onEvict == nil {
		n.onEvict = n.evicted
	}
	sampler, err := n.samp.init(cfg.SampleSize, cfg.SampleProb, cfg.Seed, n.onEvict)
	if err != nil {
		return err
	}
	n.sampler = sampler
	n.st.init()
	n.pass, n.pos, n.items, n.m, n.found = 0, 0, 0, 0, 0
	n.meter = space.Meter{}
	return nil
}

// evicted drops the record of an edge bottom-k evicted and retracts the
// discoveries credited to it: an edge that does not survive into the final
// sample would otherwise bias the estimate upward by the early
// over-inclusive sample.
func (n *NaiveTwoPass) evicted(e graph.Edge) {
	if r, ok := n.st.det.evict(e); ok {
		n.found -= r.hits
		n.meter.Release(space.WordsPerEdge + 2)
	}
}

// Recycle hands n's state to a later NewNaiveTwoPass, which reuses its
// memory. Call it once n's run has completed and every result read from n
// is taken; n must not be used afterwards.
func (n *NaiveTwoPass) Recycle() { naiveTwoPasses.put(n) }

// Passes implements stream.Algorithm.
func (n *NaiveTwoPass) Passes() int { return 2 }

// StartPass implements stream.Algorithm.
func (n *NaiveTwoPass) StartPass(p int) {
	n.pass = p
	n.pos = 0
}

// StartList implements stream.Algorithm.
func (n *NaiveTwoPass) StartList(owner graph.V) {
	n.pos++
	if n.pass == 1 {
		n.st.det.retire(owner)
	}
}

// Edge implements stream.Algorithm.
func (n *NaiveTwoPass) Edge(owner, nbr graph.V) {
	if n.pass == 0 {
		n.items++
		if n.sampler.Offer(owner, nbr) && !n.st.det.tracked(owner, nbr) {
			n.st.det.track(owner, nbr, n.pos)
			n.meter.Charge(space.WordsPerEdge + 2)
		}
	}
	n.st.touch(nbr, true, false)
}

// EndList implements stream.Algorithm.
func (n *NaiveTwoPass) EndList(owner graph.V) {
	n.st.det.recs.finishList(func(id int32) {
		if r := &n.st.det.recs.ent[id].val; n.pass == 0 || n.pos < r.posFirst {
			n.found++
			r.hits++
		}
	})
}

// EndPass implements stream.Algorithm.
func (n *NaiveTwoPass) EndPass(p int) {
	if p == 0 {
		n.m = n.items / 2
	}
}

// Estimate returns scale·N/3: unbiased because every triangle is discovered
// once per final-sample edge it contains (discoveries credited to evicted
// edges are retracted), and each triangle has three edges.
func (n *NaiveTwoPass) Estimate() float64 {
	return n.sampler.InclusionScale(n.m) * float64(n.found) / 3
}

// Detected reports whether any triangle on a sampled edge was found — the
// 0-versus-T distinguishing answer of Table 1 row 5.
func (n *NaiveTwoPass) Detected() bool { return n.found > 0 }

// PairsDiscovered returns N.
func (n *NaiveTwoPass) PairsDiscovered() int64 { return n.found }

// SpaceWords implements stream.Estimator.
func (n *NaiveTwoPass) SpaceWords() int64 {
	return n.meter.Peak()
}

// M returns the edge count measured in pass one.
func (n *NaiveTwoPass) M() int64 { return n.m }
