package baseline

import (
	"sort"

	"adjstream/internal/graph"
	"adjstream/internal/sampling"
	"adjstream/internal/space"
	"adjstream/internal/stream"
)

// LocalTriangles is a two-pass semi-streaming estimator of per-vertex
// triangle counts (local triangle counting in the sense of Becchetti et
// al., which the paper's introduction cites as a motivating application).
// It samples edges by hash and credits every discovered (edge, apex)
// incidence to the triangle's three vertices with weight 1/(3p), so each
// vertex's estimate is unbiased for its local count. Like all local
// counters it keeps one counter per touched vertex (semi-streaming space),
// plus the edge sample.
type LocalTriangles struct {
	p       float64
	seed    uint64
	sampler sampling.EdgeSampler
	det     *detectorLite

	counts map[graph.V]float64
	pass   int
	pos    int
	items  int64
	m      int64
	meter  space.Meter
}

// detectorLite reuses the core detection idea locally: sampled edges with
// two presence flags, reset per list.
type detectorLite struct {
	recs     map[graph.Edge]*liteRec
	byVertex map[graph.V][]*liteRec
	dirty    []*liteRec
}

type liteRec struct {
	u, v         graph.V
	posFirst     int
	flagU, flagV bool
}

// NewLocalTriangles returns the estimator with sampling probability p
// (p = 1 gives exact local counts).
func NewLocalTriangles(p float64, seed uint64) (*LocalTriangles, error) {
	cfg := Config{SampleProb: p, Seed: seed}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sampler, err := sampling.NewFixedProb(p, seed)
	if err != nil {
		return nil, err
	}
	l := &LocalTriangles{
		p:       p,
		seed:    seed,
		counts:  make(map[graph.V]float64),
		det:     &detectorLite{recs: make(map[graph.Edge]*liteRec), byVertex: make(map[graph.V][]*liteRec)},
		sampler: sampler,
	}
	attachMeter("local_triangles", &l.meter)
	return l, nil
}

// Passes implements stream.Algorithm.
func (l *LocalTriangles) Passes() int { return 2 }

// StartPass implements stream.Algorithm.
func (l *LocalTriangles) StartPass(p int) {
	l.pass = p
	l.pos = 0
}

// StartList implements stream.Algorithm.
func (l *LocalTriangles) StartList(owner graph.V) { l.pos++ }

// Edge implements stream.Algorithm.
func (l *LocalTriangles) Edge(owner, nbr graph.V) {
	if l.pass == 0 {
		l.items++
		e := graph.Edge{U: owner, V: nbr}.Norm()
		if l.sampler.Offer(owner, nbr) && l.det.recs[e] == nil {
			r := &liteRec{u: e.U, v: e.V, posFirst: l.pos}
			l.det.recs[e] = r
			l.det.byVertex[r.u] = append(l.det.byVertex[r.u], r)
			l.det.byVertex[r.v] = append(l.det.byVertex[r.v], r)
			l.meter.Charge(space.WordsPerEdge + 1)
		}
	}
	for _, r := range l.det.byVertex[nbr] {
		if !r.flagU && !r.flagV {
			l.det.dirty = append(l.det.dirty, r)
		}
		if nbr == r.u {
			r.flagU = true
		} else {
			r.flagV = true
		}
	}
}

// EndList implements stream.Algorithm.
func (l *LocalTriangles) EndList(owner graph.V) {
	for _, r := range l.det.dirty {
		if r.flagU && r.flagV {
			// (r, owner) is a triangle; discovered exactly once across the
			// two passes (pass one: apexes after sampling; pass two: the
			// complementary prefix).
			if l.pass == 0 || l.pos < r.posFirst {
				w := 1 / (3 * l.p)
				l.credit(r.u, w)
				l.credit(r.v, w)
				l.credit(owner, w)
			}
		}
		r.flagU, r.flagV = false, false
	}
	l.det.dirty = l.det.dirty[:0]
}

func (l *LocalTriangles) credit(v graph.V, w float64) {
	if _, ok := l.counts[v]; !ok {
		l.meter.Charge(space.WordsPerCounter + 1)
	}
	l.counts[v] += w
}

// EndPass implements stream.Algorithm.
func (l *LocalTriangles) EndPass(p int) {
	if p == 0 {
		l.m = l.items / 2
	}
}

// Local returns the estimated triangle count through v.
func (l *LocalTriangles) Local(v graph.V) float64 { return l.counts[v] }

// Counts returns the full estimate map (shared; do not modify).
func (l *LocalTriangles) Counts() map[graph.V]float64 { return l.counts }

// Estimate returns the implied global triangle count Σ local / 3.
func (l *LocalTriangles) Estimate() float64 {
	// Sum in sorted vertex order: map iteration order is randomized, and
	// a fixed summation order keeps the estimate bit-deterministic across
	// runs and execution drivers.
	vs := make([]graph.V, 0, len(l.counts))
	for v := range l.counts {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	var s float64
	for _, v := range vs {
		s += l.counts[v]
	}
	return s / 3
}

// SpaceWords implements stream.Estimator.
func (l *LocalTriangles) SpaceWords() int64 {
	return l.meter.Peak()
}

// M returns the measured edge count.
func (l *LocalTriangles) M() int64 { return l.m }

var _ stream.Estimator = (*LocalTriangles)(nil)
