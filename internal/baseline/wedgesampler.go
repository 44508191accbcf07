package baseline

import (
	"adjstream/internal/graph"
	"adjstream/internal/sampling"
	"adjstream/internal/space"
	"adjstream/internal/stream"
)

// sampledWedge is a wedge a–center–b formed by two sampled edges, watching
// for the closing edge {a,b} later in the stream.
type sampledWedge struct {
	a, center, b graph.V
	closed       bool
	dead         bool
}

// WedgeSampler is a single-pass wedge-sampling triangle estimator in the
// spirit of Buriol et al. [12] and Jha–Seshadhri–Pinar [17] (Table 1 row 1):
// edges are hash-sampled as they first appear; each pair of sampled edges
// sharing an endpoint forms a wedge; a wedge is closed when its endpoint
// pair later appears as a stream item.
//
// Under a uniformly random adjacency-list order (random list order and
// random order within lists), the expected number of closed wedges per
// triangle whose edges are all sampled is exactly 5/2: with lists arriving
// as x1, x2, x3, the wedges centered at x1 and x2 always form before a
// later appearance of their closing edge, while the wedge centered at x3
// forms in x2's list at the item (x2,x3) and is closed only if the item
// (x2,x1) follows it within that list — probability 1/2. With
// pair-inclusion probability p₂ the unbiased estimate is therefore
// closed·dilution/((5/2)·p₂). In adversarial order the estimator degrades —
// the behaviour the random-order model rules out.
type WedgeSampler struct {
	cfg     Config
	sampler sampling.EdgeSampler

	incident map[graph.V][]graph.V // sampled-edge adjacency
	byPair   map[graph.Edge][]*sampledWedge
	wedges   *sampling.Reservoir[*sampledWedge]
	formed   int64

	items  int64
	m      int64
	closed int64
	meter  space.Meter
}

var _ stream.Estimator = (*WedgeSampler)(nil)

// NewWedgeSampler validates cfg and returns the estimator. WedgeCap bounds
// the wedge reservoir; 0 defaults to 4·SampleSize (or 65536 in probability
// mode).
func NewWedgeSampler(cfg Config) (*WedgeSampler, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	w := &WedgeSampler{
		cfg:      cfg,
		incident: make(map[graph.V][]graph.V),
		byPair:   make(map[graph.Edge][]*sampledWedge),
	}
	cap := cfg.WedgeCap
	if cap == 0 {
		if cfg.SampleSize > 0 {
			cap = 4 * cfg.SampleSize
		} else {
			cap = 65536
		}
	}
	w.wedges = sampling.NewReservoir[*sampledWedge](cap, cfg.Seed^0x1f3a_5b77)
	sampler, err := cfg.newSampler(func(e graph.Edge) { w.evictEdge(e) })
	if err != nil {
		return nil, err
	}
	w.sampler = sampler
	attachMeter("wedge_sampler", &w.meter)
	return w, nil
}

// Passes implements stream.Algorithm.
func (w *WedgeSampler) Passes() int { return 1 }

// StartPass implements stream.Algorithm.
func (w *WedgeSampler) StartPass(int) {}

// StartList implements stream.Algorithm.
func (w *WedgeSampler) StartList(owner graph.V) {}

// Edge implements stream.Algorithm.
func (w *WedgeSampler) Edge(owner, nbr graph.V) {
	w.items++
	// Closure check first: the current item may close existing wedges.
	key := graph.Edge{U: owner, V: nbr}.Norm()
	for _, sw := range w.byPair[key] {
		if !sw.dead && !sw.closed {
			sw.closed = true
			w.closed++
		}
	}
	// Then sampling and wedge formation.
	if w.sampler.Offer(owner, nbr) && !w.hasEdge(key) {
		w.addEdge(key)
	}
}

func (w *WedgeSampler) hasEdge(e graph.Edge) bool {
	for _, x := range w.incident[e.U] {
		if x == e.V {
			return true
		}
	}
	return false
}

func (w *WedgeSampler) addEdge(e graph.Edge) {
	// Form wedges with previously sampled edges sharing an endpoint.
	for _, c := range [2]graph.V{e.U, e.V} {
		other := e.V
		if c == e.V {
			other = e.U
		}
		for _, x := range w.incident[c] {
			w.formWedge(x, c, other)
		}
	}
	w.incident[e.U] = append(w.incident[e.U], e.V)
	w.incident[e.V] = append(w.incident[e.V], e.U)
	w.meter.Charge(space.WordsPerEdge)
}

func (w *WedgeSampler) formWedge(a, center, b graph.V) {
	w.formed++
	sw := &sampledWedge{a: a, center: center, b: b}
	victim, evicted, accepted := w.wedges.Offer(sw)
	if evicted {
		victim.dead = true
		if victim.closed {
			w.closed--
		}
		w.meter.Release(space.WordsPerWedge)
	}
	if !accepted {
		return
	}
	key := graph.Edge{U: a, V: b}.Norm()
	w.byPair[key] = append(w.byPair[key], sw)
	w.meter.Charge(space.WordsPerWedge)
}

func (w *WedgeSampler) evictEdge(e graph.Edge) {
	// Remove the edge from the incidence index and kill its wedges.
	w.incident[e.U] = removeV(w.incident[e.U], e.V)
	w.incident[e.V] = removeV(w.incident[e.V], e.U)
	w.meter.Release(space.WordsPerEdge)
	for _, sws := range w.byPair {
		for _, sw := range sws {
			if sw.dead {
				continue
			}
			if wedgeUses(sw, e) {
				sw.dead = true
				if sw.closed {
					w.closed--
				}
				w.meter.Release(space.WordsPerWedge)
			}
		}
	}
}

func wedgeUses(sw *sampledWedge, e graph.Edge) bool {
	e1 := graph.Edge{U: sw.a, V: sw.center}.Norm()
	e2 := graph.Edge{U: sw.center, V: sw.b}.Norm()
	return e1 == e || e2 == e
}

func removeV(xs []graph.V, v graph.V) []graph.V {
	for i, x := range xs {
		if x == v {
			xs[i] = xs[len(xs)-1]
			return xs[:len(xs)-1]
		}
	}
	return xs
}

// EndList implements stream.Algorithm.
func (w *WedgeSampler) EndList(owner graph.V) {}

// EndPass implements stream.Algorithm.
func (w *WedgeSampler) EndPass(p int) { w.m = w.items / 2 }

// Estimate returns closed·dilution/((5/2)·p₂); see the type comment for the
// random-order analysis behind the factor 5/2.
func (w *WedgeSampler) Estimate() float64 {
	p2 := w.sampler.PairInclusionProb(w.m)
	if p2 <= 0 {
		return 0
	}
	dilution := 1.0
	if w.formed > int64(w.wedges.Len()) && w.wedges.Len() > 0 {
		dilution = float64(w.formed) / float64(w.wedges.Len())
	}
	return float64(w.closed) * dilution / (2.5 * p2)
}

// ClosedWedges returns the number of live closed wedges.
func (w *WedgeSampler) ClosedWedges() int64 { return w.closed }

// WedgesFormed returns the total number of wedges formed (before any cap).
func (w *WedgeSampler) WedgesFormed() int64 { return w.formed }

// SpaceWords implements stream.Estimator.
func (w *WedgeSampler) SpaceWords() int64 {
	return w.meter.Peak()
}

// M returns the measured edge count.
func (w *WedgeSampler) M() int64 { return w.m }
