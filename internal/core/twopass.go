package core

import (
	"fmt"
	"math"

	"adjstream/internal/flat"
	"adjstream/internal/graph"
	"adjstream/internal/sampling"
	"adjstream/internal/space"
	"adjstream/internal/stream"
)

// TriangleConfig parameterizes the two- and three-pass triangle estimators.
type TriangleConfig struct {
	// SampleSize m′ selects bottom-k edge sampling with a uniform size-m′
	// sample. Exactly one of SampleSize / SampleProb must be set.
	SampleSize int
	// SampleProb selects independent per-edge sampling with this inclusion
	// probability (decided by a seeded hash). Cleaner estimator; the space
	// is then m·p in expectation rather than exactly m′.
	SampleProb float64
	// PairCap bounds the candidate set Q of (edge, triangle) pairs kept via
	// reservoir sampling — the paper's second fix in Section 2.1. Zero
	// defaults to SampleSize (or 4096 under SampleProb).
	PairCap int
	// Seed drives all sampling decisions deterministically.
	Seed uint64
}

func (c TriangleConfig) validate() error {
	hasSize := c.SampleSize > 0
	hasProb := c.SampleProb > 0
	if hasSize == hasProb {
		return fmt.Errorf("core: exactly one of SampleSize and SampleProb must be set (size=%d prob=%v)", c.SampleSize, c.SampleProb)
	}
	if hasProb && c.SampleProb > 1 {
		return fmt.Errorf("core: SampleProb %v > 1", c.SampleProb)
	}
	if c.PairCap < 0 {
		return fmt.Errorf("core: negative PairCap %d", c.PairCap)
	}
	return nil
}

func (c TriangleConfig) pairCap() int {
	if c.PairCap > 0 {
		return c.PairCap
	}
	if c.SampleSize > 0 {
		return c.SampleSize
	}
	return 4096
}

// TwoPassTriangle is the paper's main algorithm (Theorem 3.7): a two-pass
// (1±ε) triangle estimator using Õ(m/T^{2/3}) space. Pass one samples edges
// (hash-based, so membership is decided at an edge's first appearance) and
// starts collecting the triangles on sampled edges; pass two completes the
// collection (apexes that arrived before the edge entered the sample) and
// computes, for every collected triangle and each of its three edges, the
// count H_{e′,τ} of later-apex triangles on e′. A collected triangle is
// counted iff it was sampled at its ρ(τ) = argmin H edge, which suppresses
// the heavy-edge variance while keeping the estimator unbiased.
type TwoPassTriangle struct {
	sampler sampling.EdgeSampler // one of samp's two
	samp    samplers
	st      triState
	pairs   sampling.Reservoir[trianglePair] // pair j's watchers: st.watch[3j..3j+2]
	onEvict func(graph.Edge)                 // t.evicted, bound once

	pass  int
	pos   int   // current adjacency-list position (1-based)
	items int64 // items seen in pass one; m = items/2
	m     int64
	meter space.Meter
	tele  estTele
}

var _ stream.Estimator = (*TwoPassTriangle)(nil)

var twoPassTriangles flat.Pool[TwoPassTriangle]

// NewTwoPassTriangle validates cfg and returns the estimator, built on a
// recycled state when there is one.
func NewTwoPassTriangle(cfg TriangleConfig) (*TwoPassTriangle, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t := twoPassTriangles.Get()
	if err := t.init(cfg); err != nil {
		return nil, err
	}
	return t, nil
}

// init makes t a fresh estimator for the validated cfg, keeping the memory
// of its state.
func (t *TwoPassTriangle) init(cfg TriangleConfig) error {
	if t.onEvict == nil {
		t.onEvict = t.evicted
	}
	sampler, err := t.samp.init(cfg.SampleSize, cfg.SampleProb, cfg.Seed, t.onEvict)
	if err != nil {
		return err
	}
	t.sampler = sampler
	t.st.init()
	t.pairs.Init(cfg.pairCap(), cfg.Seed^0x5bf0_3635)
	t.pass, t.pos, t.items, t.m = 0, 0, 0, 0
	t.meter = space.Meter{}
	t.tele = newEstTele("twopass_triangle", &t.meter)
	return nil
}

// evicted drops the record of an edge bottom-k evicted.
func (t *TwoPassTriangle) evicted(e graph.Edge) {
	if _, ok := t.st.det.evict(e); ok {
		t.meter.Release(space.WordsPerEdge + 2)
	}
}

// Recycle hands t's state to a later NewTwoPassTriangle, which reuses its
// memory. Call it once t's run has completed and every result read from t
// is taken; t must not be used afterwards.
func (t *TwoPassTriangle) Recycle() { twoPassTriangles.Put(t) }

// Passes implements stream.Algorithm.
func (t *TwoPassTriangle) Passes() int { return 2 }

// StartPass implements stream.Algorithm.
func (t *TwoPassTriangle) StartPass(p int) {
	t.pass = p
	t.pos = 0
}

// StartList implements stream.Algorithm.
func (t *TwoPassTriangle) StartList(owner graph.V) {
	t.pos++
	if t.pass == 0 {
		t.st.det.notePos(owner, t.pos)
		return
	}
	t.st.det.retire(owner)
	t.st.startList(t.pos)
}

// Edge implements stream.Algorithm.
func (t *TwoPassTriangle) Edge(owner, nbr graph.V) {
	if t.pass == 0 {
		t.items++
		if t.sampler.Offer(owner, nbr) && !t.st.det.tracked(owner, nbr) {
			// True first appearance of a sampled edge: start tracking.
			t.st.det.track(owner, nbr, t.pos)
			t.meter.Charge(space.WordsPerEdge + 2)
		}
	}
	t.st.touch(nbr, true, t.pass == 1)
}

// EndList implements stream.Algorithm.
func (t *TwoPassTriangle) EndList(owner graph.V) {
	t.st.det.recs.finishList(func(id int32) {
		// The edge's both endpoints appeared in owner's list: triangle
		// (edge, owner). Pass one discovers apexes arriving after the edge
		// entered the sample; pass two is restricted to the complementary
		// prefix so each (edge, triangle) pair is discovered exactly once.
		if t.pass == 0 || t.pos < t.st.det.recs.ent[id].val.posFirst {
			t.addPair(id, owner)
		}
	})
}

// EndPass implements stream.Algorithm.
func (t *TwoPassTriangle) EndPass(p int) {
	t.tele.occupancy.Set(int64(t.st.det.len()))
	t.tele.pairsKept.Set(int64(t.pairs.Len()))
	t.tele.liveWords.Set(t.meter.Live())
	if p != 0 {
		t.st.settle(math.MaxInt)
		t.tele.pairsFound.Add(t.pairs.Offered())
		return
	}
	t.m = t.items / 2
	// All endpoint positions are known now: register the watchers of the
	// pairs whose edge survived, with the apex position addPair left in
	// watcher 3j. The pairs of evicted edges stay in Q, dead, and still
	// count in N and |Q|, but watch nothing.
	for j, pr := range t.pairs.Items() {
		if !t.st.det.recs.alive(pr.rec) {
			continue
		}
		n := &t.st.det.recs.ent[pr.rec.id]
		t0 := t.st.watch[3*j].thresh
		t.st.watchPair(j, graph.V(n.at[0]), graph.V(n.at[1]), pr.apex, [3]int{t0, n.val.pos[1], n.val.pos[0]}, 0)
	}
}

// addPair records a discovered (edge, triangle) pair for the edge in record
// slot id: counts it toward the pair total and offers it to the reservoir
// Q. A pair retained in pass two registers its three H watchers at once;
// one retained in pass one only leaves its apex position in watcher 3j,
// because its watchers at {u,apex} and {v,apex} count from the positions
// of v's and u's lists, which pass one may not have reached yet, and its
// edge may yet be evicted. EndPass registers them.
func (t *TwoPassTriangle) addPair(id int32, apex graph.V) {
	j, replaced := t.pairs.OfferSlot(trianglePair{rec: t.st.det.recs.ref(id), apex: apex})
	if replaced {
		t.st.unwatchPair(j)
		t.meter.Release(space.WordsPerTriangle + 3*space.WordsPerWatcher)
	}
	if j < 0 {
		return
	}
	t.meter.Charge(space.WordsPerTriangle + 3*space.WordsPerWatcher)
	if t.pass == 0 {
		t.st.watchers(j)[0].thresh = t.pos
		return
	}
	n := &t.st.det.recs.ent[id]
	t.st.watchPair(j, graph.V(n.at[0]), graph.V(n.at[1]), apex, [3]int{t.pos, n.val.pos[1], n.val.pos[0]}, t.pos)
}

// Estimate returns the triangle estimate
//
//	T̂ = scale · (N/|Q|) · |{(e,τ) ∈ Q : ρ(τ) = e}|
//
// where scale = 1/Pr[e ∈ S] and N is the total number of discovered pairs.
func (t *TwoPassTriangle) Estimate() float64 {
	q := t.pairs.Len()
	if q == 0 {
		return 0
	}
	matched := 0
	for j, pr := range t.pairs.Items() {
		if t.st.det.recs.alive(pr.rec) && t.st.rho(j, pr) {
			matched++
		}
	}
	scale := t.sampler.InclusionScale(t.m)
	dilution := float64(t.pairs.Offered()) / float64(q)
	return scale * dilution * float64(matched)
}

// SpaceWords implements stream.Estimator.
func (t *TwoPassTriangle) SpaceWords() int64 {
	return t.meter.Peak()
}

// SampledEdges returns the current number of live sampled edges (for space
// diagnostics and tests).
func (t *TwoPassTriangle) SampledEdges() int { return t.st.det.len() }

// SampledTriangles returns the triangles of the ρ-matched pairs. Because a
// triangle enters this set exactly when its unique ρ(τ) edge is sampled
// (and survives the pair reservoir), the returned set is a uniformly random
// subset of the graph's triangles — the streaming triangle-sampling
// primitive of Pavan et al. for free, as a by-product of the lightest-edge
// rule. Valid after both passes.
func (t *TwoPassTriangle) SampledTriangles() []graph.Triangle {
	var out []graph.Triangle
	for j, pr := range t.pairs.Items() {
		if !t.st.det.recs.alive(pr.rec) || !t.st.rho(j, pr) {
			continue
		}
		u, v := t.st.edge(pr)
		out = append(out, sortedTriangle(u, v, pr.apex))
	}
	return out
}

func sortedTriangle(a, b, c graph.V) graph.Triangle {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return graph.Triangle{A: a, B: b, C: c}
}

// PairsDiscovered returns N, the total number of (edge, triangle) pairs
// found across both passes (including pairs for edges later evicted).
func (t *TwoPassTriangle) PairsDiscovered() int64 {
	return t.pairs.Offered()
}

// M returns the edge count measured in pass one.
func (t *TwoPassTriangle) M() int64 { return t.m }
