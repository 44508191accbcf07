package core

import (
	"fmt"
	"math"

	"adjstream/internal/flat"
	"adjstream/internal/graph"
	"adjstream/internal/stream"
)

// AdaptiveConfig parameterizes the adaptive two-pass triangle estimator.
type AdaptiveConfig struct {
	// InitialSample is the starting bottom-k capacity (an upper bound on
	// the space the run may use). Required.
	InitialSample int
	// MinSample floors the adaptive budget (default 64).
	MinSample int
	// C is the budget constant in k = C·m_seen/T̂^{2/3} (default 8, the
	// constant the Table 1 row-6 experiments use).
	C float64
	// PairCap bounds the candidate reservoir (default 8·InitialSample).
	PairCap int
	// Seed drives all sampling decisions.
	Seed uint64
}

func (c AdaptiveConfig) withDefaults() (AdaptiveConfig, error) {
	if c.InitialSample < 1 {
		return c, fmt.Errorf("core: adaptive InitialSample %d < 1", c.InitialSample)
	}
	if c.MinSample == 0 {
		c.MinSample = 64
		if c.MinSample > c.InitialSample {
			c.MinSample = c.InitialSample
		}
	}
	if c.MinSample < 1 || c.MinSample > c.InitialSample {
		return c, fmt.Errorf("core: adaptive MinSample %d out of [1, %d]", c.MinSample, c.InitialSample)
	}
	if c.C == 0 {
		c.C = 8
	}
	if c.C < 0 {
		return c, fmt.Errorf("core: adaptive C %v < 0", c.C)
	}
	if c.PairCap == 0 {
		c.PairCap = 8 * c.InitialSample
	}
	if c.PairCap < 0 {
		return c, fmt.Errorf("core: adaptive PairCap %d < 0", c.PairCap)
	}
	return c, nil
}

// AdaptiveTwoPassTriangle runs the Theorem 3.7 two-pass estimator without
// knowing T in advance — the gap between the paper's statement (budgets
// parameterized by the unknown T) and a deployable system. During pass one
// it maintains a running naive triangle estimate from the pairs discovered
// so far and shrinks the bottom-k capacity toward k = C·m_seen/T̂^{2/3}.
// Shrinking is sound because a bottom-k sample only ever loses its
// largest-hash edges: the final sample is still a uniform subset and every
// surviving edge has been tracked since first sight (see BottomK.Shrink).
// The final budget is mildly data-dependent, so the estimator trades the
// paper's exact unbiasedness for self-tuning space; the A6 experiment
// measures the cost.
type AdaptiveTwoPassTriangle struct {
	inner TwoPassTriangle // always bottom-k: inner.samp.bk
	cfg   AdaptiveConfig
}

var _ stream.Estimator = (*AdaptiveTwoPassTriangle)(nil)

var adaptiveTriangles flat.Pool[AdaptiveTwoPassTriangle]

// NewAdaptiveTwoPassTriangle validates cfg and returns the estimator, built
// on a recycled state when there is one.
func NewAdaptiveTwoPassTriangle(cfg AdaptiveConfig) (*AdaptiveTwoPassTriangle, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	a := adaptiveTriangles.Get()
	if err := a.init(cfg); err != nil {
		return nil, err
	}
	return a, nil
}

// init makes a a fresh estimator for cfg, whose defaults are applied,
// keeping the memory of its state.
func (a *AdaptiveTwoPassTriangle) init(cfg AdaptiveConfig) error {
	a.cfg = cfg
	return a.inner.init(TriangleConfig{SampleSize: cfg.InitialSample, PairCap: cfg.PairCap, Seed: cfg.Seed})
}

// Recycle hands a's state to a later NewAdaptiveTwoPassTriangle, which
// reuses its memory. Call it once a's run has completed and every result
// read from a is taken; a must not be used afterwards.
func (a *AdaptiveTwoPassTriangle) Recycle() { adaptiveTriangles.Put(a) }

// Passes implements stream.Algorithm.
func (a *AdaptiveTwoPassTriangle) Passes() int { return a.inner.Passes() }

// StartPass implements stream.Algorithm.
func (a *AdaptiveTwoPassTriangle) StartPass(p int) {
	a.inner.StartPass(p)
}

// StartList implements stream.Algorithm.
func (a *AdaptiveTwoPassTriangle) StartList(v graph.V) { a.inner.StartList(v) }

// Edge implements stream.Algorithm.
func (a *AdaptiveTwoPassTriangle) Edge(o, n graph.V) { a.inner.Edge(o, n) }

// EndList implements stream.Algorithm.
func (a *AdaptiveTwoPassTriangle) EndList(v graph.V) {
	a.inner.EndList(v)
	if a.inner.pass == 0 {
		a.adapt()
	}
}

// adapt shrinks the sample toward k = C·m_seen/T̂^{2/3}, with hysteresis so
// the heap is not churned on every list.
func (a *AdaptiveTwoPassTriangle) adapt() {
	bk := &a.inner.samp.bk
	mSeen := a.inner.items / 2
	if mSeen < int64(a.cfg.MinSample) {
		return
	}
	k := bk.K()
	pairs := a.inner.pairs.Offered()
	if pairs == 0 {
		return
	}
	// Naive running estimate: pass-one discoveries find, on average, half
	// of each sampled edge's triangles (apexes after sampling), and each
	// triangle has three edges, so T ≈ 2·scale·pairs/3.
	scale := float64(mSeen) / float64(min64(int64(k), mSeen))
	tEst := 2 * scale * float64(pairs) / 3
	if tEst < 1 {
		tEst = 1
	}
	target := int(a.cfg.C * float64(mSeen) / math.Pow(tEst, 2.0/3.0))
	if target < a.cfg.MinSample {
		target = a.cfg.MinSample
	}
	// Hysteresis: only shrink on a clear (25%) overshoot.
	if target < k*3/4 {
		bk.Shrink(target)
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// EndPass implements stream.Algorithm.
func (a *AdaptiveTwoPassTriangle) EndPass(p int) { a.inner.EndPass(p) }

// Estimate implements stream.Estimator.
func (a *AdaptiveTwoPassTriangle) Estimate() float64 {
	return a.inner.Estimate()
}

// SpaceWords implements stream.Estimator.
func (a *AdaptiveTwoPassTriangle) SpaceWords() int64 {
	return a.inner.SpaceWords()
}

// FinalSample returns the sample capacity the run converged to.
func (a *AdaptiveTwoPassTriangle) FinalSample() int { return a.inner.samp.bk.K() }

// SampledEdges returns the live sampled-edge count.
func (a *AdaptiveTwoPassTriangle) SampledEdges() int { return a.inner.SampledEdges() }

// M returns the edge count measured in pass one.
func (a *AdaptiveTwoPassTriangle) M() int64 { return a.inner.m }
