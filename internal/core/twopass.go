package core

import (
	"fmt"

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

// trianglePair is a collected (sampled edge, triangle) pair with the three
// H_{e′,τ} watchers of its triangle (index 0 is the sampled edge itself,
// 1 is {u,apex}, 2 is {v,apex}).
type trianglePair struct {
	rec  *edgeRec
	apex graph.V
	w    [3]*watcher
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
	sampler sampling.EdgeSampler
	det     *detector
	watch   *watchSet
	pairs   *sampling.Reservoir[*trianglePair]

	pass   int
	pos    int   // current adjacency-list position (1-based)
	items  int64 // items seen in pass one; m = items/2
	m      int64
	meter  space.Meter
	tele   estTele
	inList bool
}

var _ stream.Estimator = (*TwoPassTriangle)(nil)

// NewTwoPassTriangle validates cfg and returns the estimator.
func NewTwoPassTriangle(cfg TriangleConfig) (*TwoPassTriangle, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t := &TwoPassTriangle{det: newDetector(), watch: newWatchSet()}
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
	t.pairs = sampling.NewReservoir[*trianglePair](cfg.pairCap(), cfg.Seed^0x5bf0_3635)
	t.tele = newEstTele("twopass_triangle", &t.meter)
	return t, nil
}

// Passes implements stream.Algorithm.
func (t *TwoPassTriangle) Passes() int { return 2 }

// StartPass implements stream.Algorithm.
func (t *TwoPassTriangle) StartPass(p int) {
	t.pass = p
	t.pos = 0
	t.inList = false
}

// StartList implements stream.Algorithm.
func (t *TwoPassTriangle) StartList(owner graph.V) {
	t.pos++
	t.inList = true
	if t.pass == 0 {
		t.det.notePos(owner, t.pos)
	}
}

// Edge implements stream.Algorithm.
func (t *TwoPassTriangle) Edge(owner, nbr graph.V) {
	if t.pass == 0 {
		t.items++
		if t.sampler.Offer(owner, nbr) && t.det.get(owner, nbr) == nil {
			// True first appearance of a sampled edge: start tracking.
			t.det.track(owner, nbr, t.pos)
			t.meter.Charge(space.WordsPerEdge + 2)
		}
	}
	t.det.flag(nbr)
	if t.pass == 1 {
		t.watch.flag(nbr)
	}
}

// EndList implements stream.Algorithm.
func (t *TwoPassTriangle) EndList(owner graph.V) {
	if t.pass == 1 {
		t.watch.finishList(t.pos)
	}
	t.det.finishList(func(r *edgeRec) {
		// r's both endpoints appeared in owner's list: triangle (r, owner).
		// Pass one discovers apexes arriving after the edge entered the
		// sample; pass two is restricted to the complementary prefix so
		// each (edge, triangle) pair is discovered exactly once.
		if t.pass == 0 || t.pos < r.posFirst {
			t.addPair(r, owner)
		}
	})
	t.inList = false
}

// EndPass implements stream.Algorithm.
func (t *TwoPassTriangle) EndPass(p int) {
	t.tele.occupancy.Set(int64(t.det.len()))
	t.tele.pairsKept.Set(int64(t.pairs.Len()))
	t.tele.liveWords.Set(t.meter.Live())
	if p != 0 {
		t.tele.pairsFound.Add(t.pairs.Offered())
		return
	}
	t.m = t.items / 2
	// All endpoint positions are known now; resolve deferred thresholds and
	// tombstone watchers of pairs whose edge was evicted during pass one.
	for _, pr := range t.pairs.Items() {
		for _, w := range pr.w {
			if pr.rec.dead {
				w.dead = true
				continue
			}
			w.resolve()
		}
	}
}

// addPair records a discovered (edge, triangle) pair: counts it toward the
// pair total and offers it to the reservoir Q, registering its three
// H watchers only if retained.
func (t *TwoPassTriangle) addPair(r *edgeRec, apex graph.V) {
	pr := &trianglePair{rec: r, apex: apex}
	victim, evicted, accepted := t.pairs.Offer(pr)
	if evicted {
		for _, w := range victim.w {
			w.dead = true
		}
		t.meter.Release(space.WordsPerTriangle + 3*space.WordsPerWatcher)
	}
	if !accepted {
		return
	}
	pr.w[0] = &watcher{x: r.u, y: r.v, thresh: t.pos}
	pr.w[1] = &watcher{x: r.u, y: apex, threshRec: r, threshAt: r.v, thresh: -1}
	pr.w[2] = &watcher{x: r.v, y: apex, threshRec: r, threshAt: r.u, thresh: -1}
	if t.pass == 1 {
		// Both endpoint positions are known after pass one.
		pr.w[1].resolve()
		pr.w[2].resolve()
	}
	for _, w := range pr.w {
		t.watch.add(w)
	}
	t.meter.Charge(space.WordsPerTriangle + 3*space.WordsPerWatcher)
}

// rho reports whether the pair's triangle has its argmin-H edge equal to the
// sampled edge, with ties broken toward the lexicographically smallest edge
// (an intrinsic, sample-independent tie break).
func (pr *trianglePair) rho() bool {
	sampled := graph.Edge{U: pr.rec.u, V: pr.rec.v}
	best := sampled
	bestH := pr.w[0].count
	for i, other := range [2]graph.Edge{
		graph.Edge{U: pr.rec.u, V: pr.apex}.Norm(),
		graph.Edge{U: pr.rec.v, V: pr.apex}.Norm(),
	} {
		h := pr.w[i+1].count
		if h < bestH || (h == bestH && edgeLess(other, best)) {
			best, bestH = other, h
		}
	}
	return best == sampled
}

func edgeLess(a, b graph.Edge) bool {
	if a.U != b.U {
		return a.U < b.U
	}
	return a.V < b.V
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
	for _, pr := range t.pairs.Items() {
		if pr.rec.dead {
			continue
		}
		if pr.rho() {
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
func (t *TwoPassTriangle) SampledEdges() int { return t.det.len() }

// SampledTriangles returns the triangles of the ρ-matched pairs. Because a
// triangle enters this set exactly when its unique ρ(τ) edge is sampled
// (and survives the pair reservoir), the returned set is a uniformly random
// subset of the graph's triangles — the streaming triangle-sampling
// primitive of Pavan et al. for free, as a by-product of the lightest-edge
// rule. Valid after both passes.
func (t *TwoPassTriangle) SampledTriangles() []graph.Triangle {
	var out []graph.Triangle
	for _, pr := range t.pairs.Items() {
		if pr.rec.dead || !pr.rho() {
			continue
		}
		out = append(out, sortedTriangle(pr.rec.u, pr.rec.v, pr.apex))
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
