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

// trackedPair is one diagonal pair {light, heavy}, by vertex id, whose
// exact co-degree the closure passes compute: pass two collects N(light),
// and pass three counts the edges {c, heavy} with c ∈ N(light), which is
// exactly |N(light) ∩ N(heavy)| because every edge appears once per pass.
type trackedPair struct {
	light, heavy int32
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
// bit-deterministic. Every vertex is held by its id in the owner's vertex
// index, which pass two extends to the neighbours of light vertices.
//
// Every pair on light vertex L collects the same set N(L), so pass two
// records each (L, neighbour) once, and each edge appears once per pass, so
// the record needs no set. Pass three counts an edge {c, h} toward the
// pairs with heavy endpoint h whose light endpoint is next to c by reading
// marks (see witness), not by a lookup per pair.
type pairTracker struct {
	vertices *vertexIndex   // the owner's, shared with its adjacencies
	pairs    []trackedPair  // creation order
	index    flat.Table     // packed endpoint ids → pair id
	onLight  []int32        // vertex id → number of pairs it is light in
	byHeavy  csr[pairEntry] // heavy id → its pairs, creation order
	seen     []seenNbr      // pass two's (light, neighbour) records
	nbrOf    csr[int32]     // vertex id → the light vertices next to it

	// Pass three's marks, both indexed by light id and written as 1 + the
	// id of the vertex they were built for, so 0 is unmarked. lightMark[L]
	// is markedC+1 when L is next to markedC; pairMark[L] is {markedH+1,
	// pair} when pair is {L, markedH}. The adjacency and the pairs no
	// longer change, so a mark left by an earlier build for the same vertex
	// is still true, and a build only writes, never clears.
	lightMark        []int32
	pairMark         []pairEntry
	markedC, markedH int32
	prevU, prevV     graph.V // the previous pass-three edge

	meter *space.Meter
}

// pairEntry is a pair id with a vertex: its light endpoint in a heavy
// vertex's row, or 1 + the marked heavy vertex in pairMark.
type pairEntry struct{ vertex, pair int32 }

// seenNbr records that nbr is next to the light vertex light.
type seenNbr struct{ light, nbr int32 }

// init empties t, keeping its memory, and binds it to its owner's vertex
// index and meter.
func (t *pairTracker) init(vertices *vertexIndex, meter *space.Meter) {
	t.vertices = vertices
	t.pairs = t.pairs[:0]
	t.index.Reset()
	t.seen = t.seen[:0]
	t.meter = meter
}

// pair returns the tracked pair on the vertex ids a and b, creating it on
// first use with the smaller name as its light endpoint. The pointer is
// valid until the next call.
func (t *pairTracker) pair(a, b int32) *trackedPair {
	key := uint64(min(a, b))<<32 | uint64(max(a, b))
	id, ok := t.index.Get(key)
	if !ok {
		id = int32(len(t.pairs))
		t.index.Put(key, id)
		if t.vertices.names[b] < t.vertices.names[a] {
			a, b = b, a
		}
		t.pairs = append(t.pairs, trackedPair{light: a, heavy: b})
		t.meter.Charge(space.WordsPerWatcher)
	}
	return &t.pairs[id]
}

// orient fixes each pair's heavy/light orientation by sampled degree, the
// vertex's neighbours over the given samples (ties by vertex name), and
// builds the pass-two/three indexes. Called at the end of pass one, when
// the sampled degrees are final.
func (t *pairTracker) orient(samples ...*adjacency) {
	n := t.vertices.len()
	// lightMark is not used before pass three; it holds the degrees here.
	t.lightMark = extend(t.lightMark[:0], n)
	sdeg := t.lightMark
	for _, a := range samples {
		for v, r := range a.runs {
			sdeg[v] += r.n
		}
	}
	t.onLight = extend(t.onLight[:0], n)
	for i := range t.pairs {
		tp := &t.pairs[i]
		if sdeg[tp.heavy] < sdeg[tp.light] {
			tp.light, tp.heavy = tp.heavy, tp.light
		}
		t.onLight[tp.light]++
	}
	t.byHeavy.build(n, len(t.pairs), func(i int) (int32, pairEntry) {
		return t.pairs[i].heavy, pairEntry{t.pairs[i].light, int32(i)}
	})
}

// light returns how many pairs have v as their light endpoint.
func (t *pairTracker) light(v int32) int32 {
	if int(v) >= len(t.onLight) {
		return 0 // an id given in pass two
	}
	return t.onLight[v]
}

// observe handles one pass-two edge: it records each endpoint as a
// neighbour of the other where that one is a light endpoint, giving the
// neighbour an id if it has none. The paper charges each pair its own set,
// so every record costs one counter per pair on the light vertex.
func (t *pairTracker) observe(u, v graph.V) {
	iu, uok := t.vertices.id(u)
	iv, vok := t.vertices.id(v)
	if uok && t.light(iu) > 0 {
		if !vok {
			iv, vok = t.vertices.intern(v), true
		}
		t.collect(iu, iv)
	}
	if vok && t.light(iv) > 0 {
		if !uok {
			iu = t.vertices.intern(u)
		}
		t.collect(iv, iu)
	}
}

// collect records w as a neighbour of the light vertex l.
func (t *pairTracker) collect(l, w int32) {
	t.seen = append(t.seen, seenNbr{l, w})
	t.meter.Charge(int64(t.onLight[l]) * space.WordsPerCounter)
}

// invert builds nbrOf from pass two's records and clears the marks. Called
// at the end of pass two; no id is given after it.
func (t *pairTracker) invert() {
	seen := t.seen
	t.nbrOf.build(t.vertices.len(), len(seen), func(i int) (int32, int32) { return seen[i].nbr, seen[i].light })
	t.lightMark = extend(t.lightMark[:0], len(t.onLight))
	t.pairMark = extend(t.pairMark[:0], len(t.onLight))
	t.markedC, t.markedH = -1, -1
	t.prevU, t.prevV = -1, -1
}

// close handles one pass-three edge {u, v}: it witnesses a common
// neighbour for the pairs on v whose light endpoint is next to u, and for
// the pairs on u whose light endpoint is next to v. Marks it must build
// are u's when u was an endpoint of the previous edge too, and v's
// otherwise: in an order derived from adjacency lists a list's owner
// recurs over consecutive edges, so its marks are built once per list.
func (t *pairTracker) close(u, v graph.V) {
	uShared := u == t.prevU || u == t.prevV
	t.prevU, t.prevV = u, v
	iu, ok := t.vertices.id(u)
	if !ok {
		return
	}
	iv, ok := t.vertices.id(v)
	if !ok {
		return
	}
	t.witness(iu, iv, uShared)
	t.witness(iv, iu, !uShared)
}

// witness counts edge {c, h} toward every pair with heavy endpoint h whose
// light endpoint is next to c. With c's light neighbours marked it reads
// one mark per pair on h; with h's pairs marked, one per light neighbour
// of c. When neither is marked it marks c's side first if markC is set,
// and h's otherwise.
func (t *pairTracker) witness(c, h int32, markC bool) {
	pairs := t.byHeavy.row(h)
	if len(pairs) == 0 {
		return
	}
	lights := t.nbrOf.row(c)
	if len(lights) == 0 {
		return
	}
	byC := t.markedC == c
	if byC && t.markedH == h {
		byC = len(pairs) <= len(lights)
	} else if !byC && t.markedH != h {
		byC = markC
		if byC {
			t.markedC = c
			for _, l := range lights {
				t.lightMark[l] = c + 1
			}
		} else {
			t.markedH = h
			for _, e := range pairs {
				t.pairMark[e.vertex] = pairEntry{h + 1, e.pair}
			}
		}
	}
	if byC {
		for _, e := range pairs {
			if t.lightMark[e.vertex] == c+1 {
				t.pairs[e.pair].codeg++
			}
		}
		return
	}
	for _, l := range lights {
		if m := t.pairMark[l]; m.vertex == h+1 {
			t.pairs[m.pair].codeg++
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

	vertices vertexIndex
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
	t.vertices.reset()
	t.incident.reset()
	t.tracker.init(&t.vertices, &t.meter)
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
			e := graph.Edge{U: u, V: v}.Norm()
			t.addSampled(t.vertices.intern(e.U), t.vertices.intern(e.V))
		}
	case 1:
		t.tracker.observe(u, v)
	case 2:
		t.tracker.close(u, v)
	}
}

// addSampled registers the wedges the new sampled edge {a, b} (vertex
// ids, a's name the smaller) forms with the sample so far: each one's
// endpoint pair becomes (or re-weights) a tracked diagonal pair.
func (t *ThreePassFourCycle) addSampled(a, b int32) {
	for _, c := range [2]int32{a, b} {
		other := b
		if c == b {
			other = a
		}
		for _, x := range t.incident.nbrs(c) {
			if x == other {
				continue
			}
			t.tracker.pair(x, other).weight++
		}
	}
	t.incident.add(a, b)
	t.incident.add(b, a)
	t.meter.Charge(space.WordsPerEdge)
}

// EndPass implements Algorithm.
func (t *ThreePassFourCycle) EndPass(p int) {
	switch p {
	case 0:
		t.m = t.items
		t.tracker.orient(&t.incident)
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
	p, q     float64
	estS     sampling.FixedProb
	discS    sampling.FixedProb
	vertices vertexIndex // shared by both samples and the tracker
	incEst   adjacency
	incDisc  adjacency
	tracker  pairTracker

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
	n.vertices.reset()
	n.incEst.reset()
	n.incDisc.reset()
	n.tracker.init(&n.vertices, &n.meter)
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
		disc, est := n.discS.Offer(u, v), n.estS.Offer(u, v)
		if !disc && !est {
			return
		}
		e := graph.Edge{U: u, V: v}.Norm()
		a, b := n.vertices.intern(e.U), n.vertices.intern(e.V)
		if disc {
			n.addSampled(a, b, &n.incDisc, true)
		}
		if est {
			n.addSampled(a, b, &n.incEst, false)
		}
	case 1:
		n.tracker.observe(u, v)
	case 2:
		n.tracker.close(u, v)
	}
}

// addSampled registers the wedges the sampled edge {a, b} (vertex ids, a's
// name the smaller) forms inside one of the two samples, marking each
// touched pair with that sample's flag: disc for the discovery sample, est
// for the estimation sample.
func (n *NearOptFourCycle) addSampled(a, b int32, incident *adjacency, disc bool) {
	for _, c := range [2]int32{a, b} {
		other := b
		if c == b {
			other = a
		}
		for _, x := range incident.nbrs(c) {
			if x == other {
				continue
			}
			tp := n.tracker.pair(x, other)
			if disc {
				tp.disc = true
			} else {
				tp.est = true
			}
		}
	}
	incident.add(a, b)
	incident.add(b, a)
	n.meter.Charge(space.WordsPerEdge)
}

// EndPass implements Algorithm.
func (n *NearOptFourCycle) EndPass(p int) {
	switch p {
	case 0:
		n.m = n.items
		n.tracker.orient(&n.incDisc, &n.incEst)
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
