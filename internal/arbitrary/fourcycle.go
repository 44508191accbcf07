package arbitrary

import (
	"fmt"
	"math"

	"adjstream/internal/flat"
	"adjstream/internal/graph"
	"adjstream/internal/sampling"
	"adjstream/internal/space"
)

// Three-pass arbitrary-order 4-cycle estimation. Both estimators below ride
// on the same identity: with codeg(x,y) = |N(x) ∩ N(y)|, every unordered
// vertex pair {x,y} is the diagonal of exactly C(codeg(x,y), 2) four-cycles,
// and every 4-cycle has two diagonals, so
//
//	C4 = ½ · Σ_{pairs} C(codeg, 2).
//
// Pass one hash-samples edges and turns pairs of sampled edges sharing an
// endpoint into tracked diagonal pairs; passes two and three then compute
// the *exact* co-degree of every tracked pair. The exact-closure machinery
// is shared (pairTracker) and uses the heavy/light orientation trick: each
// pair collects the neighbour set of its endpoint with the smaller sampled
// degree, so the per-pair state is min(deg) rather than max(deg) words in
// expectation.

// trackedPair is one diagonal pair {light, heavy} whose exact co-degree the
// closure passes compute: pass two collects N(light), and pass three counts
// the edges {c, heavy} with c ∈ N(light), which is exactly
// |N(light) ∩ N(heavy)| because every edge appears once per pass.
type trackedPair struct {
	light, heavy graph.V
	codeg        int64
	weight       int64 // sampled-wedge multiplicity (ThreePassFourCycle)
	disc         bool  // found by the discovery sample (NearOptFourCycle)
	est          bool  // found by the estimation sample (NearOptFourCycle)
}

// pairTracker is the exact co-degree machinery shared by the two 4-cycle
// estimators. Pairs are registered during pass one (wedge formation inside
// the edge sample), oriented heavy/light once the sampled degrees are final,
// and closed over passes two and three. Pairs are held by value in creation
// order, which fixes every iteration (estimates sum floats), keeping runs
// bit-deterministic.
//
// Every pair on light vertex L collects the same set N(L), so the pairs
// share one pending set of (L, neighbour) keys. Pass three counts an edge
// {c, h} toward the pairs with heavy endpoint h and c ∈ N(light) from
// whichever side is smaller: h's pairs, each probing pending for
// (light, c), or the light vertices adjacent to c, each probing the pair
// index for (L, h). Both sides count the same pairs.
type pairTracker struct {
	pairs   []trackedPair // creation order
	index   flat.Table    // PackEdge of the endpoints → pair id
	lights  flat.Table    // light endpoint → number of its pairs
	byHeavy csr[int32]    // heavy endpoint → pair ids, creation order
	pending flat.Table    // light<<32 | neighbour → 0
	keys    []uint64      // pending's keys, for nbrOf
	nbrOf   csr[uint32]   // neighbour → light vertices, from pending
	meter   *space.Meter
}

// init empties t, keeping its memory, and binds it to its owner's meter.
func (t *pairTracker) init(meter *space.Meter) {
	t.pairs = t.pairs[:0]
	t.index.Reset()
	t.lights.Reset()
	t.byHeavy.reset()
	t.pending.Reset()
	t.nbrOf.reset()
	t.meter = meter
}

// pair returns the tracked pair for {a,b}, creating it on first use. The
// pointer is valid until the next call.
func (t *pairTracker) pair(a, b graph.V) *trackedPair {
	key := sampling.PackEdge(a, b)
	id, ok := t.index.Get(key)
	if !ok {
		id = int32(len(t.pairs))
		t.index.Put(key, id)
		t.pairs = append(t.pairs, trackedPair{light: min(a, b), heavy: max(a, b)})
		t.meter.Charge(space.WordsPerWatcher)
	}
	return &t.pairs[id]
}

// orient fixes each pair's heavy/light orientation by sampled degree (ties
// by vertex id) and builds the pass-two/three indexes. Called at the end of
// pass one, when the sampled degrees are final.
func (t *pairTracker) orient(sdeg func(graph.V) int) {
	for i := range t.pairs {
		tp := &t.pairs[i]
		if sdeg(tp.heavy) < sdeg(tp.light) {
			tp.light, tp.heavy = tp.heavy, tp.light
		}
		k, _ := t.lights.Get(uint64(tp.light))
		t.lights.Put(uint64(tp.light), k+1)
	}
	t.byHeavy.build(len(t.pairs), func(i int) (graph.V, int32) { return t.pairs[i].heavy, int32(i) })
}

// observe handles one pass-two edge: it adds each endpoint to the pending
// set of the other where that one is a light endpoint. The paper charges
// each pair its own set, so every insert costs one counter per pair on the
// light vertex; each is new, because every edge appears once per pass.
func (t *pairTracker) observe(u, v graph.V) {
	t.collect(u, v)
	t.collect(v, u)
}

// collect adds w to v's pending set if v is a light endpoint.
func (t *pairTracker) collect(v, w graph.V) {
	k, ok := t.lights.Get(uint64(v))
	if !ok {
		return
	}
	t.pending.Put(uint64(v)<<32|uint64(w), 0)
	t.meter.Charge(int64(k) * space.WordsPerCounter)
}

// invert builds nbrOf from the pending set. Called at the end of pass two.
func (t *pairTracker) invert() {
	t.keys = t.pending.AppendKeys(t.keys[:0])
	keys := t.keys
	t.nbrOf.build(len(keys), func(i int) (graph.V, uint32) { return graph.V(uint32(keys[i])), uint32(keys[i] >> 32) })
}

// close handles one pass-three edge: an edge {c, heavy} with c in the
// light endpoint's pending set witnesses one common neighbour.
func (t *pairTracker) close(u, v graph.V) {
	t.witness(u, v)
	t.witness(v, u)
}

// witness counts edge {c, h} toward every pair with heavy endpoint h whose
// light endpoint has c in its pending set.
func (t *pairTracker) witness(c, h graph.V) {
	ids := t.byHeavy.row(h)
	if len(ids) == 0 {
		return
	}
	lights := t.nbrOf.row(c)
	if len(ids) <= len(lights) {
		for _, id := range ids {
			tp := &t.pairs[id]
			if _, ok := t.pending.Get(uint64(tp.light)<<32 | uint64(c)); ok {
				tp.codeg++
			}
		}
		return
	}
	for _, l := range lights {
		if id, ok := t.index.Get(sampling.PackEdge(graph.V(l), h)); ok && t.pairs[id].heavy == h {
			t.pairs[id].codeg++
		}
	}
}

// ThreePassFourCycle is the port of Vorotnikova's improved 3-pass
// arbitrary-order 4-cycle estimator (arXiv 2007.13466) onto this package's
// contracts. Pass one hash-samples edges with probability p and registers
// every wedge formed inside the sample as a diagonal pair, with
// multiplicity w_P = number of sampled wedges on pair P; passes two and
// three compute each tracked pair's exact co-degree. A wedge x–c–y lies in
// codeg(x,y) − 1 four-cycles (pick the second common neighbor ≠ c), each
// 4-cycle contains four wedges, and a wedge survives sampling with
// probability exactly p² (its two edges are distinct, so their hash
// decisions are independent), which makes
//
//	Ĉ4 = Σ_P w_P · (codeg_P − 1) / (4p²)
//
// unbiased. The space is the edge sample plus, per tracked pair, the
// pending set of its lighter endpoint — the heavy/light split that keeps
// the closure state near the paper's budget instead of Θ(Δ) per pair.
type ThreePassFourCycle struct {
	p       float64
	sampler sampling.FixedProb

	incident adjacency // sampled-edge adjacency (pass one only)
	tracker  pairTracker

	pass  int
	items int64
	m     int64
	meter space.Meter
}

var _ Estimator = (*ThreePassFourCycle)(nil)

var threePassFourCycles flat.Pool[ThreePassFourCycle]

// NewThreePassFourCycle returns the estimator with edge-sampling
// probability p ∈ (0,1], built on a recycled state when there is one.
func NewThreePassFourCycle(p float64, seed uint64) (*ThreePassFourCycle, error) {
	t := threePassFourCycles.Get()
	if err := t.init(p, seed); err != nil {
		return nil, err
	}
	return t, nil
}

// init makes t a fresh estimator, keeping the memory of its state.
func (t *ThreePassFourCycle) init(p float64, seed uint64) error {
	if err := t.sampler.Init(p, seed); err != nil {
		return err
	}
	t.p = p
	t.incident.reset()
	t.tracker.init(&t.meter)
	t.pass, t.items, t.m = 0, 0, 0
	t.meter = space.Meter{}
	return nil
}

// Recycle hands t's state to a later NewThreePassFourCycle, which reuses
// its memory. Call it once t's run has completed and every result read
// from t is taken; t must not be used afterwards.
func (t *ThreePassFourCycle) Recycle() { threePassFourCycles.Put(t) }

// Passes implements Algorithm.
func (t *ThreePassFourCycle) Passes() int { return 3 }

// StartPass implements Algorithm.
func (t *ThreePassFourCycle) StartPass(p int) { t.pass = p }

// Edge implements Algorithm.
func (t *ThreePassFourCycle) Edge(u, v graph.V) {
	switch t.pass {
	case 0:
		t.items++
		if t.sampler.Offer(u, v) {
			t.addSampled(graph.Edge{U: u, V: v}.Norm())
		}
	case 1:
		t.tracker.observe(u, v)
	case 2:
		t.tracker.close(u, v)
	}
}

// addSampled registers the wedges the new sampled edge forms with the
// sample so far: each one's endpoint pair becomes (or re-weights) a tracked
// diagonal pair.
func (t *ThreePassFourCycle) addSampled(e graph.Edge) {
	for _, c := range [2]graph.V{e.U, e.V} {
		other := e.V
		if c == e.V {
			other = e.U
		}
		for _, x := range t.incident.nbrs(c) {
			if graph.V(x) == other {
				continue
			}
			t.tracker.pair(graph.V(x), other).weight++
		}
	}
	t.incident.add(e.U, e.V)
	t.incident.add(e.V, e.U)
	t.meter.Charge(space.WordsPerEdge)
}

// EndPass implements Algorithm.
func (t *ThreePassFourCycle) EndPass(p int) {
	switch p {
	case 0:
		t.m = t.items
		t.tracker.orient(t.incident.degree)
		// The sample itself is dead weight after the pairs are formed; only
		// the tracker state rides into the closure passes. Its memory stays
		// with the state for the next init.
		t.meter.Release(int64(t.sampler.Len()) * space.WordsPerEdge)
	case 1:
		t.tracker.invert()
	}
}

// Estimate returns Σ w·(codeg−1) / (4p²).
func (t *ThreePassFourCycle) Estimate() float64 {
	var closure int64
	for _, tp := range t.tracker.pairs {
		closure += tp.weight * (tp.codeg - 1)
	}
	return float64(closure) / (4 * t.p * t.p)
}

// SpaceWords implements Estimator.
func (t *ThreePassFourCycle) SpaceWords() int64 { return t.meter.Peak() }

// M returns the edge count measured in pass one.
func (t *ThreePassFourCycle) M() int64 { return t.m }

// PairsTracked returns the number of diagonal pairs whose co-degree the
// closure passes computed.
func (t *ThreePassFourCycle) PairsTracked() int64 { return int64(len(t.tracker.pairs)) }

// NearOptFourCycle is the port of the Lüderssen–Neumann–Peng near-optimal
// (1±ε) 3-pass arbitrary-order estimator (arXiv 2604.00828). It runs two
// independent hash samples in pass one: a discovery sample at rate q and an
// estimation sample at rate p, with independent seeds. A diagonal pair is
// tracked when either sample forms a wedge on it, and passes two and three
// compute its exact co-degree d. Because a pair's wedges have distinct
// centers, their edge sets are disjoint and the per-wedge survival events
// are independent, so Pr[pair enters the estimation sample] is exactly
// β(d) = 1 − (1−p²)^d. The split estimator
//
//	Ĉ4 = ½ · [ Σ_{discovered} C(d,2)  +  Σ_{est-only} C(d,2) / β(d) ]
//
// is unbiased for every pair (E = C(d,2)·(α + (1−α)·β·(1/β)) with
// α = 1 − (1−q²)^d), and the heavy/light split is what buys near-optimal
// variance: high-co-degree pairs are discovered almost surely and enter
// exactly, while the surviving light pairs have C(d,2) capped by the
// discovery threshold, so the inverse-β scaling cannot blow up.
type NearOptFourCycle struct {
	p, q    float64
	estS    sampling.FixedProb
	discS   sampling.FixedProb
	incEst  adjacency
	incDisc adjacency
	tracker pairTracker

	pass  int
	items int64
	m     int64
	meter space.Meter
}

var _ Estimator = (*NearOptFourCycle)(nil)

var nearOptFourCycles flat.Pool[NearOptFourCycle]

// NewNearOptFourCycle returns the estimator with estimation rate p ∈ (0,1]
// and discovery rate q. q = 0 selects the default q = min(1, √p): denser
// than the estimation sample, so pairs with co-degree ≳ 1/q² — the ones
// whose C(d,2) would dominate the variance — are discovered almost surely
// and contribute exactly. The estimator is built on a recycled state when
// there is one.
func NewNearOptFourCycle(p, q float64, seed uint64) (*NearOptFourCycle, error) {
	if q == 0 {
		q = math.Min(1, math.Sqrt(p))
	}
	if !(q > 0 && q <= 1) {
		return nil, fmt.Errorf("arbitrary: discovery rate %v outside (0,1]", q)
	}
	n := nearOptFourCycles.Get()
	if err := n.init(p, q, seed); err != nil {
		return nil, err
	}
	return n, nil
}

// init makes n a fresh estimator for the validated discovery rate q,
// keeping the memory of its state.
func (n *NearOptFourCycle) init(p, q float64, seed uint64) error {
	if err := n.estS.Init(p, seed^0x8f1b_bcdc_bfa5_3e0b); err != nil {
		return err
	}
	if err := n.discS.Init(q, seed^0x2b99_2ddf_a232_49d6); err != nil {
		return err
	}
	n.p, n.q = p, q
	n.incEst.reset()
	n.incDisc.reset()
	n.tracker.init(&n.meter)
	n.pass, n.items, n.m = 0, 0, 0
	n.meter = space.Meter{}
	return nil
}

// Recycle hands n's state to a later NewNearOptFourCycle, which reuses its
// memory. Call it once n's run has completed and every result read from n
// is taken; n must not be used afterwards.
func (n *NearOptFourCycle) Recycle() { nearOptFourCycles.Put(n) }

// Passes implements Algorithm.
func (n *NearOptFourCycle) Passes() int { return 3 }

// StartPass implements Algorithm.
func (n *NearOptFourCycle) StartPass(p int) { n.pass = p }

// Edge implements Algorithm.
func (n *NearOptFourCycle) Edge(u, v graph.V) {
	switch n.pass {
	case 0:
		n.items++
		e := graph.Edge{U: u, V: v}.Norm()
		if n.discS.Offer(u, v) {
			n.addSampled(e, &n.incDisc, true)
		}
		if n.estS.Offer(u, v) {
			n.addSampled(e, &n.incEst, false)
		}
	case 1:
		n.tracker.observe(u, v)
	case 2:
		n.tracker.close(u, v)
	}
}

// addSampled registers the wedges e forms inside one of the two samples,
// marking each touched pair with that sample's flag: disc for the
// discovery sample, est for the estimation sample.
func (n *NearOptFourCycle) addSampled(e graph.Edge, incident *adjacency, disc bool) {
	for _, c := range [2]graph.V{e.U, e.V} {
		other := e.V
		if c == e.V {
			other = e.U
		}
		for _, x := range incident.nbrs(c) {
			if graph.V(x) == other {
				continue
			}
			tp := n.tracker.pair(graph.V(x), other)
			if disc {
				tp.disc = true
			} else {
				tp.est = true
			}
		}
	}
	incident.add(e.U, e.V)
	incident.add(e.V, e.U)
	n.meter.Charge(space.WordsPerEdge)
}

// EndPass implements Algorithm.
func (n *NearOptFourCycle) EndPass(p int) {
	switch p {
	case 0:
		n.m = n.items
		n.tracker.orient(func(v graph.V) int { return n.incDisc.degree(v) + n.incEst.degree(v) })
		n.meter.Release(int64(n.discS.Len()+n.estS.Len()) * space.WordsPerEdge)
	case 1:
		n.tracker.invert()
	}
}

// Estimate returns the split estimator over the tracked pairs.
func (n *NearOptFourCycle) Estimate() float64 {
	p2 := n.p * n.p
	var sum float64
	for _, tp := range n.tracker.pairs {
		d := float64(tp.codeg)
		if d < 2 {
			continue
		}
		c2 := d * (d - 1) / 2
		switch {
		case tp.disc:
			sum += c2
		case tp.est:
			sum += c2 / (1 - math.Pow(1-p2, d))
		}
	}
	return sum / 2
}

// SpaceWords implements Estimator.
func (n *NearOptFourCycle) SpaceWords() int64 { return n.meter.Peak() }

// M returns the edge count measured in pass one.
func (n *NearOptFourCycle) M() int64 { return n.m }

// PairsTracked returns the number of diagonal pairs whose co-degree the
// closure passes computed.
func (n *NearOptFourCycle) PairsTracked() int64 { return int64(len(n.tracker.pairs)) }
