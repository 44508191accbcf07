package core

import (
	"adjstream/internal/graph"
	"adjstream/internal/sampling"
	"adjstream/internal/space"
	"adjstream/internal/stream"
)

// ThreePassTriangle is the Section 2.1 three-pass algorithm: pass one
// samples edges, passes one and two collect every triangle on a sampled
// edge, and pass three computes the exact triangle loads T(e′) of all three
// edges of every collected triangle. A triangle is counted iff it was
// sampled at its exact lightest edge argmin_{e′∈τ} T(e′).
//
// Compared with TwoPassTriangle it trades one extra pass for exact loads
// (no H proxy) and stores the entire candidate set Q, whose size is
// (m′/m)·3T in expectation — the two problems the final algorithm fixes.
// It is retained as the Table 1 row-4 representative and for the A2
// ablation (H proxy versus exact T_e).
type ThreePassTriangle struct {
	sampler sampling.EdgeSampler
	det     *detector
	watch   *watchSet
	pairs   []*trianglePair

	pass  int
	pos   int
	items int64
	m     int64
	meter space.Meter
}

var _ stream.Estimator = (*ThreePassTriangle)(nil)

// NewThreePassTriangle validates cfg and returns the estimator. PairCap is
// ignored: this variant deliberately stores all collected triangles.
func NewThreePassTriangle(cfg TriangleConfig) (*ThreePassTriangle, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t := &ThreePassTriangle{det: newDetector(), watch: newWatchSet()}
	if cfg.SampleSize > 0 {
		t.sampler = sampling.NewBottomK(cfg.SampleSize, cfg.Seed, func(e graph.Edge) {
			if r := t.det.markDead(e); r != nil {
				t.meter.Release(space.WordsPerEdge + 2)
			}
		})
	} else {
		fp, err := sampling.NewFixedProb(cfg.SampleProb, cfg.Seed)
		if err != nil {
			return nil, err
		}
		t.sampler = fp
	}
	return t, nil
}

// Passes implements stream.Algorithm.
func (t *ThreePassTriangle) Passes() int { return 3 }

// StartPass implements stream.Algorithm.
func (t *ThreePassTriangle) StartPass(p int) {
	t.pass = p
	t.pos = 0
}

// StartList implements stream.Algorithm.
func (t *ThreePassTriangle) StartList(owner graph.V) {
	t.pos++
	if t.pass == 0 {
		t.det.notePos(owner, t.pos)
	}
}

// Edge implements stream.Algorithm.
func (t *ThreePassTriangle) Edge(owner, nbr graph.V) {
	switch t.pass {
	case 0:
		t.items++
		if t.sampler.Offer(owner, nbr) && t.det.get(owner, nbr) == nil {
			t.det.track(owner, nbr, t.pos)
			t.meter.Charge(space.WordsPerEdge + 2)
		}
		t.det.flag(nbr)
	case 1:
		t.det.flag(nbr)
	case 2:
		t.watch.flag(nbr)
	}
}

// EndList implements stream.Algorithm.
func (t *ThreePassTriangle) EndList(owner graph.V) {
	switch t.pass {
	case 0:
		t.det.finishList(func(r *edgeRec) { t.collect(r, owner) })
	case 1:
		t.det.finishList(func(r *edgeRec) {
			if t.pos < r.posFirst {
				t.collect(r, owner)
			}
		})
	case 2:
		t.watch.finishList(t.pos)
	}
}

// EndPass implements stream.Algorithm.
func (t *ThreePassTriangle) EndPass(p int) {
	switch p {
	case 0:
		t.m = t.items / 2
	case 1:
		// Register an exact-load counter (threshold 0 counts every apex) for
		// each edge of each collected triangle, counted during pass three.
		for _, pr := range t.pairs {
			if pr.rec.dead {
				continue
			}
			pr.w[0] = &watcher{x: pr.rec.u, y: pr.rec.v}
			pr.w[1] = &watcher{x: pr.rec.u, y: pr.apex}
			pr.w[2] = &watcher{x: pr.rec.v, y: pr.apex}
			for _, w := range pr.w {
				t.watch.add(w)
			}
			t.meter.Charge(3 * space.WordsPerWatcher)
		}
	}
}

func (t *ThreePassTriangle) collect(r *edgeRec, apex graph.V) {
	t.pairs = append(t.pairs, &trianglePair{rec: r, apex: apex})
	t.meter.Charge(space.WordsPerTriangle)
}

// Estimate returns scale · |{(e,τ) collected : argmin_{e′∈τ} T(e′) = e}|.
func (t *ThreePassTriangle) Estimate() float64 {
	matched := 0
	for _, pr := range t.pairs {
		if pr.rec.dead || pr.w[0] == nil {
			continue
		}
		if pr.rho() {
			matched++
		}
	}
	return t.sampler.InclusionScale(t.m) * float64(matched)
}

// SpaceWords implements stream.Estimator.
func (t *ThreePassTriangle) SpaceWords() int64 {
	return t.meter.Peak()
}

// PairsCollected returns |Q|, the number of (edge, triangle) pairs stored.
func (t *ThreePassTriangle) PairsCollected() int {
	return len(t.pairs)
}

// M returns the edge count measured in pass one.
func (t *ThreePassTriangle) M() int64 { return t.m }
