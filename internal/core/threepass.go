package core

import (
	"adjstream/internal/flat"
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
	sampler sampling.EdgeSampler // one of samp's two
	samp    samplers
	st      triState
	pairs   []trianglePair   // from pass three on, live pairs only; pair i's watchers are st.watch[3i..3i+2]
	found   int              // pairs collected, including pairs of evicted edges
	loaded  bool             // load watchers registered (end of pass two)
	onEvict func(graph.Edge) // t.evicted, bound once

	pass  int
	pos   int
	items int64
	m     int64
	meter space.Meter
}

var _ stream.Estimator = (*ThreePassTriangle)(nil)

var threePassTriangles flat.Pool[ThreePassTriangle]

// NewThreePassTriangle validates cfg and returns the estimator, built on a
// recycled state when there is one. PairCap is ignored: this variant
// deliberately stores all collected triangles.
func NewThreePassTriangle(cfg TriangleConfig) (*ThreePassTriangle, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t := threePassTriangles.Get()
	if err := t.init(cfg); err != nil {
		return nil, err
	}
	return t, nil
}

// init makes t a fresh estimator for the validated cfg, keeping the memory
// of its state.
func (t *ThreePassTriangle) init(cfg TriangleConfig) error {
	if t.onEvict == nil {
		t.onEvict = t.evicted
	}
	sampler, err := t.samp.init(cfg.SampleSize, cfg.SampleProb, cfg.Seed, t.onEvict)
	if err != nil {
		return err
	}
	t.sampler = sampler
	t.st.init()
	t.pairs = t.pairs[:0]
	t.found, t.loaded = 0, false
	t.pass, t.pos, t.items, t.m = 0, 0, 0, 0
	t.meter = space.Meter{}
	return nil
}

// evicted drops the record of an edge bottom-k evicted.
func (t *ThreePassTriangle) evicted(e graph.Edge) {
	if _, ok := t.st.det.evict(e); ok {
		t.meter.Release(space.WordsPerEdge + 2)
	}
}

// Recycle hands t's state to a later NewThreePassTriangle, which reuses its
// memory. Call it once t's run has completed and every result read from t
// is taken; t must not be used afterwards.
func (t *ThreePassTriangle) Recycle() { threePassTriangles.Put(t) }

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
	switch t.pass {
	case 0:
		t.st.det.notePos(owner, t.pos)
	case 1:
		t.st.det.retire(owner)
	case 2:
		t.st.startList(t.pos)
	}
}

// Edge implements stream.Algorithm.
func (t *ThreePassTriangle) Edge(owner, nbr graph.V) {
	switch t.pass {
	case 0:
		t.items++
		if t.sampler.Offer(owner, nbr) && !t.st.det.tracked(owner, nbr) {
			t.st.det.track(owner, nbr, t.pos)
			t.meter.Charge(space.WordsPerEdge + 2)
		}
		t.st.touch(nbr, true, false)
	case 1:
		t.st.touch(nbr, true, false)
	case 2:
		t.st.touch(nbr, false, true)
	}
}

// EndList implements stream.Algorithm.
func (t *ThreePassTriangle) EndList(owner graph.V) {
	switch t.pass {
	case 0:
		t.st.det.recs.finishList(func(id int32) { t.collect(id, owner) })
	case 1:
		t.st.det.recs.finishList(func(id int32) {
			if t.pos < t.st.det.recs.ent[id].val.posFirst {
				t.collect(id, owner)
			}
		})
	}
}

// EndPass implements stream.Algorithm.
func (t *ThreePassTriangle) EndPass(p int) {
	switch p {
	case 0:
		t.m = t.items / 2
	case 1:
		// Drop the pairs of evicted edges, then register an exact-load
		// watcher (threshold 0 counts every apex) for each edge of each
		// remaining triangle, counted during pass three.
		live := t.pairs[:0]
		for _, pr := range t.pairs {
			if t.st.det.recs.alive(pr.rec) {
				live = append(live, pr)
			}
		}
		t.pairs = live
		for i, pr := range t.pairs {
			u, v := t.st.edge(pr)
			t.st.watchPair(i, u, v, pr.apex, [3]int{}, 0)
			t.meter.Charge(3 * space.WordsPerWatcher)
		}
		t.loaded = true
	}
}

func (t *ThreePassTriangle) collect(id int32, apex graph.V) {
	t.pairs = append(t.pairs, trianglePair{rec: t.st.det.recs.ref(id), apex: apex})
	t.found++
	t.meter.Charge(space.WordsPerTriangle)
}

// Estimate returns scale · |{(e,τ) collected : argmin_{e′∈τ} T(e′) = e}|.
func (t *ThreePassTriangle) Estimate() float64 {
	matched := 0
	for i, pr := range t.pairs {
		if t.loaded && t.st.rho(i, pr) {
			matched++
		}
	}
	return t.sampler.InclusionScale(t.m) * float64(matched)
}

// SpaceWords implements stream.Estimator.
func (t *ThreePassTriangle) SpaceWords() int64 {
	return t.meter.Peak()
}

// PairsCollected returns |Q|, the number of (edge, triangle) pairs
// collected in passes one and two, including the pairs of edges evicted
// from a bottom-k sample.
func (t *ThreePassTriangle) PairsCollected() int {
	return t.found
}

// M returns the edge count measured in pass one.
func (t *ThreePassTriangle) M() int64 { return t.m }
