package baseline

import (
	"fmt"

	"adjstream/internal/graph"
	"adjstream/internal/sampling"
	"adjstream/internal/space"
	"adjstream/internal/stream"
)

// Config parameterizes the baseline samplers; exactly one of SampleSize
// (bottom-k) and SampleProb (independent hash inclusion) must be set.
type Config struct {
	SampleSize int
	SampleProb float64
	// WedgeCap bounds the wedge set of WedgeSampler (0 = unbounded).
	WedgeCap int
	Seed     uint64
}

func (c Config) validate() error {
	hasSize := c.SampleSize > 0
	hasProb := c.SampleProb > 0
	if hasSize == hasProb {
		return fmt.Errorf("baseline: exactly one of SampleSize and SampleProb must be set (size=%d prob=%v)", c.SampleSize, c.SampleProb)
	}
	if hasProb && c.SampleProb > 1 {
		return fmt.Errorf("baseline: SampleProb %v > 1", c.SampleProb)
	}
	if c.WedgeCap < 0 {
		return fmt.Errorf("baseline: negative WedgeCap %d", c.WedgeCap)
	}
	return nil
}

func (c Config) newSampler(onEvict func(graph.Edge)) (sampling.EdgeSampler, error) {
	if c.SampleSize > 0 {
		return sampling.NewBottomK(c.SampleSize, c.Seed, onEvict), nil
	}
	return sampling.NewFixedProb(c.SampleProb, c.Seed)
}

// oneRec is a sampled edge with detection flags for the one-pass estimator.
type oneRec struct {
	u, v         graph.V
	flagU, flagV bool
	hits         int64 // detections credited to this edge
	dead         bool
}

// OnePassTriangle is the Õ(m/√T)-style single-pass estimator: sample edges
// by hash (membership decided at first sight) and flag their endpoints in
// every subsequent adjacency list; a list containing both endpoints of a
// sampled edge closes a triangle. In adjacency-list order, each triangle is
// detectable at exactly two of its three edges (the two whose first
// appearance precedes the third vertex's list), so the estimate is
// scale·N/2.
type OnePassTriangle struct {
	sampler  sampling.EdgeSampler
	recs     map[graph.Edge]*oneRec
	byVertex map[graph.V][]*oneRec
	dirty    []*oneRec

	items int64
	m     int64
	found int64
	meter space.Meter
}

var _ stream.Estimator = (*OnePassTriangle)(nil)

// NewOnePassTriangle validates cfg and returns the estimator.
func NewOnePassTriangle(cfg Config) (*OnePassTriangle, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	o := &OnePassTriangle{
		recs:     make(map[graph.Edge]*oneRec),
		byVertex: make(map[graph.V][]*oneRec),
	}
	sampler, err := cfg.newSampler(func(e graph.Edge) {
		if r := o.recs[e]; r != nil {
			r.dead = true
			// Detections by an edge that does not survive into the final
			// sample would bias the estimator upward (early samples are
			// over-inclusive); retract them.
			o.found -= r.hits
			o.meter.Release(space.WordsPerEdge)
		}
	})
	if err != nil {
		return nil, err
	}
	o.sampler = sampler
	attachMeter("onepass_triangle", &o.meter)
	return o, nil
}

// Passes implements stream.Algorithm.
func (o *OnePassTriangle) Passes() int { return 1 }

// StartPass implements stream.Algorithm.
func (o *OnePassTriangle) StartPass(int) {}

// StartList implements stream.Algorithm.
func (o *OnePassTriangle) StartList(owner graph.V) {}

// Edge implements stream.Algorithm.
func (o *OnePassTriangle) Edge(owner, nbr graph.V) {
	o.items++
	e := graph.Edge{U: owner, V: nbr}.Norm()
	if o.sampler.Offer(owner, nbr) && o.recs[e] == nil {
		r := &oneRec{u: e.U, v: e.V}
		o.recs[e] = r
		o.byVertex[r.u] = append(o.byVertex[r.u], r)
		o.byVertex[r.v] = append(o.byVertex[r.v], r)
		o.meter.Charge(space.WordsPerEdge)
	}
	for _, r := range o.byVertex[nbr] {
		if r.dead {
			continue
		}
		if !r.flagU && !r.flagV {
			o.dirty = append(o.dirty, r)
		}
		if nbr == r.u {
			r.flagU = true
		} else {
			r.flagV = true
		}
	}
}

// EndList implements stream.Algorithm.
func (o *OnePassTriangle) EndList(owner graph.V) {
	for _, r := range o.dirty {
		if r.flagU && r.flagV && !r.dead {
			o.found++
			r.hits++
		}
		r.flagU, r.flagV = false, false
	}
	o.dirty = o.dirty[:0]
}

// EndPass implements stream.Algorithm.
func (o *OnePassTriangle) EndPass(p int) { o.m = o.items / 2 }

// Estimate returns scale·N/2 (two detectable edges per triangle).
func (o *OnePassTriangle) Estimate() float64 {
	return o.sampler.InclusionScale(o.m) * float64(o.found) / 2
}

// Detected reports whether any triangle was found.
func (o *OnePassTriangle) Detected() bool { return o.found > 0 }

// PairsDiscovered returns the raw detection count N.
func (o *OnePassTriangle) PairsDiscovered() int64 { return o.found }

// SpaceWords implements stream.Estimator.
func (o *OnePassTriangle) SpaceWords() int64 {
	return o.meter.Peak()
}

// M returns the measured edge count.
func (o *OnePassTriangle) M() int64 { return o.m }
