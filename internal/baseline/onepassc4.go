package baseline

import (
	"adjstream/internal/graph"
	"adjstream/internal/sampling"
	"adjstream/internal/space"
	"adjstream/internal/stream"
)

// OnePassFourCycle is the natural sublinear one-pass 4-cycle heuristic:
// keep a bottom-k edge sample and count the 4-cycles inside it, scaling by
// the fourth power of the inclusion rate. Theorem 5.3 proves that *no*
// sublinear one-pass algorithm can work for 4-cycles (unlike triangles),
// and this estimator is the empirical witness: on the Figure 1c gadgets its
// detection probability collapses to (m′/m)⁴-level — experiment T1.R10
// uses it to show the lower bound biting a concrete algorithm.
type OnePassFourCycle struct {
	cfg     Config
	sampler sampling.EdgeSampler
	builder *graph.Builder
	evicted map[graph.Edge]bool

	items int64
	m     int64
	meter space.Meter

	// Restored-run summary (state.go); nil unless Restore was called.
	snap         *stream.CopyState
	snapDetected bool
}

var _ stream.Estimator = (*OnePassFourCycle)(nil)

// NewOnePassFourCycle validates cfg and returns the estimator.
func NewOnePassFourCycle(cfg Config) (*OnePassFourCycle, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	o := &OnePassFourCycle{cfg: cfg, builder: graph.NewBuilder(), evicted: make(map[graph.Edge]bool)}
	sampler, err := cfg.newSampler(func(e graph.Edge) {
		// The builder cannot delete; remember evictions and filter at the
		// end (bottom-k churn is modest at the budgets this is used with).
		o.evicted[e] = true
		o.meter.Release(space.WordsPerEdge)
	})
	if err != nil {
		return nil, err
	}
	o.sampler = sampler
	attachMeter("onepass_fourcycle", &o.meter)
	return o, nil
}

// Passes implements stream.Algorithm.
func (o *OnePassFourCycle) Passes() int { return 1 }

// StartPass implements stream.Algorithm.
func (o *OnePassFourCycle) StartPass(int) {}

// StartList implements stream.Algorithm.
func (o *OnePassFourCycle) StartList(owner graph.V) {}

// Edge implements stream.Algorithm.
func (o *OnePassFourCycle) Edge(owner, nbr graph.V) {
	o.items++
	if o.sampler.Offer(owner, nbr) {
		if o.builder.AddIfAbsent(owner, nbr) {
			o.meter.Charge(space.WordsPerEdge)
		}
	}
}

// EndList implements stream.Algorithm.
func (o *OnePassFourCycle) EndList(owner graph.V) {}

// EndPass implements stream.Algorithm.
func (o *OnePassFourCycle) EndPass(p int) { o.m = o.items / 2 }

// sampleGraph returns the retained sample as a graph, dropping evictions.
func (o *OnePassFourCycle) sampleGraph() *graph.Graph {
	if len(o.evicted) == 0 {
		return o.builder.Graph()
	}
	full := o.builder.Graph()
	b := graph.NewBuilder()
	for _, e := range full.Edges() {
		if !o.evicted[e] {
			_ = b.Add(e.U, e.V)
		}
	}
	return b.Graph()
}

// Estimate returns (#4-cycles in the sample)·(m/m′)⁴: unbiased, but a cycle
// survives only if all four of its edges are sampled — the (m′/m)⁴ hit that
// makes the estimator useless at sublinear budgets, exactly as Theorem 5.3
// requires.
func (o *OnePassFourCycle) Estimate() float64 {
	if o.snap != nil {
		return o.snap.Estimate
	}
	g := o.sampleGraph()
	inSample := g.FourCycles()
	scale := o.sampler.InclusionScale(o.m)
	return float64(inSample) * scale * scale * scale * scale
}

// Detected reports whether any 4-cycle survived in the sample.
func (o *OnePassFourCycle) Detected() bool {
	if o.snap != nil {
		return o.snapDetected
	}
	return o.sampleGraph().FourCycles() > 0
}

// SpaceWords implements stream.Estimator.
func (o *OnePassFourCycle) SpaceWords() int64 {
	if o.snap != nil {
		return o.snap.SpaceWords
	}
	return o.meter.Peak()
}

// M returns the measured edge count.
func (o *OnePassFourCycle) M() int64 { return o.m }
