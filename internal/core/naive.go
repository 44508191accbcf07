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
	sampler sampling.EdgeSampler
	st      *triState // records only

	pass  int
	pos   int
	items int64
	m     int64
	found int64 // N = Σ_{e∈S} T(e)
	meter space.Meter
}

var _ stream.Estimator = (*NaiveTwoPass)(nil)

// NewNaiveTwoPass validates cfg and returns the algorithm. PairCap is
// ignored (only a counter is kept per discovery).
func NewNaiveTwoPass(cfg TriangleConfig) (*NaiveTwoPass, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := &NaiveTwoPass{st: newTriState()}
	if cfg.SampleSize > 0 {
		n.sampler = sampling.NewBottomK(cfg.SampleSize, cfg.Seed, func(e graph.Edge) {
			if r, ok := n.st.det.evict(e); ok {
				// Retract discoveries credited to an edge that does not
				// survive into the final sample; otherwise the estimate is
				// biased upward by the early over-inclusive sample.
				n.found -= r.hits
				n.meter.Release(space.WordsPerEdge + 2)
			}
		})
	} else {
		fp, err := sampling.NewFixedProb(cfg.SampleProb, cfg.Seed)
		if err != nil {
			return nil, err
		}
		n.sampler = fp
	}
	return n, nil
}

// Passes implements stream.Algorithm.
func (n *NaiveTwoPass) Passes() int { return 2 }

// StartPass implements stream.Algorithm.
func (n *NaiveTwoPass) StartPass(p int) {
	n.pass = p
	n.pos = 0
}

// StartList implements stream.Algorithm.
func (n *NaiveTwoPass) StartList(owner graph.V) { n.pos++ }

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
