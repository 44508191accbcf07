package arbitrary

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"slices"

	"adjstream/internal/flat"
	"adjstream/internal/graph"
	"adjstream/internal/sampling"
	"adjstream/internal/space"
	"adjstream/internal/stream"
)

// Stream is an arbitrary-order edge stream: every edge exactly once. Its
// storage is defined in package stream, so that an adjacency-list stream
// can keep its conversion (see FromAdjacencyStream); Edges, M and N are
// documented there.
type Stream = stream.EdgeStream

// FromGraph returns g's edges in a uniformly random order under seed.
func FromGraph(g *graph.Graph, seed uint64) *Stream {
	es := g.Edges()
	rng := rand.New(rand.NewPCG(seed, seed^0x6c62_272e_07bb_0142))
	rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	return stream.NewEdgeStream(es)
}

// FromEdges validates (vertex ids in [0, graph.MaxV], no duplicates in
// either orientation, no self-loops) and copies an explicit edge sequence
// into a new stream. The id bound is what lets the estimators key their
// state on sampling.PackEdge. The copy is what makes multi-pass replay
// sound: Run presents the stored sequence once per pass, so a caller
// mutating its own slice between passes must not be able to change what a
// later pass sees.
func FromEdges(edges []graph.Edge) (*Stream, error) {
	if err := validate(edges); err != nil {
		return nil, err
	}
	return stream.NewEdgeStream(slices.Clone(edges)), nil
}

// validate checks FromEdges' contract on edges.
func validate(edges []graph.Edge) error {
	var seen flat.Table // packed edge → 0
	for i, e := range edges {
		if !graph.ValidID(e.U) || !graph.ValidID(e.V) {
			return fmt.Errorf("arbitrary: edge %d (%d,%d) has a vertex id outside [0, %d]", i, e.U, e.V, graph.MaxV)
		}
		if e.U == e.V {
			return fmt.Errorf("arbitrary: self-loop at index %d", i)
		}
		n := seen.Len()
		seen.Put(sampling.PackEdge(e.U, e.V), 0)
		if seen.Len() == n {
			return fmt.Errorf("arbitrary: duplicate edge %v at index %d", e.Norm(), i)
		}
	}
	return nil
}

// FromAdjacencyStream derives an arbitrary-order edge stream from an
// adjacency-list stream: each edge once, in canonical orientation, at the
// position of its first occurrence in s. The stream computes it once and
// keeps it (stream.Stream.FirstOccurrences), so converting the same stream
// again costs nothing. It relies on s keeping the adjacency-list promise
// and checks none of it, so the edges need none of FromEdges' checks; on a
// stream that breaks the promise, the result repeats an edge.
func FromAdjacencyStream(s *stream.Stream) *Stream { return s.FirstOccurrences() }

// ReadEdges parses one whitespace-separated "u v" edge per line (blank lines
// and #-comments skipped) and returns the stream in file order — the textual
// form of an arbitrary-order stream, as genstream -format arbstream emits.
// A vertex id outside [0, graph.MaxV] is an error naming the line; the
// edges are then held to FromEdges' contract.
func ReadEdges(r io.Reader) (*Stream, error) {
	var edges []graph.Edge
	t := stream.NewTokenizer(r, 1<<22)
	for t.Next() {
		if t.NumFields() != 2 {
			return nil, fmt.Errorf("arbitrary: line %d: want \"u v\", got %q", t.Line(), t.Text())
		}
		u, err := t.Int(0)
		if err != nil {
			return nil, fmt.Errorf("arbitrary: line %d: %w", t.Line(), err)
		}
		v, err := t.Int(1)
		if err != nil {
			return nil, fmt.Errorf("arbitrary: line %d: %w", t.Line(), err)
		}
		if !graph.ValidID(graph.V(u)) || !graph.ValidID(graph.V(v)) {
			return nil, fmt.Errorf("arbitrary: line %d: vertex id outside [0, %d]", t.Line(), graph.MaxV)
		}
		edges = append(edges, graph.Edge{U: graph.V(u), V: graph.V(v)})
	}
	if err := t.Err(); err != nil {
		return nil, err
	}
	if err := validate(edges); err != nil {
		return nil, err
	}
	return stream.NewEdgeStream(edges), nil
}

// Algorithm is a multi-pass arbitrary-order streaming algorithm.
type Algorithm interface {
	// Passes returns the number of passes required.
	Passes() int
	// StartPass is called before pass p (0-based).
	StartPass(p int)
	// Edge is called once per stream edge.
	Edge(u, v graph.V)
	// EndPass is called after pass p.
	EndPass(p int)
}

// Estimator is an Algorithm producing an estimate and a space figure.
type Estimator interface {
	Algorithm
	// Estimate returns the final estimate; valid after Run.
	Estimate() float64
	// SpaceWords returns the peak words of state used.
	SpaceWords() int64
}

// Run replays s once per pass of a, in identical order.
func Run(s *Stream, a Algorithm) {
	_ = RunContext(context.Background(), s, a) // cannot fail: the context never fires
}

// RunContext is Run with cancellation. ctx is polled where
// stream.RunContext polls it: before every pass and before every
// stream.DefaultChunkItems edges after a pass's first. A canceled run
// returns ctx.Err() and leaves a in an unspecified mid-pass state; a run
// that has finished its last pass returns nil.
func RunContext(ctx context.Context, s *Stream, a Algorithm) error {
	const chunk = stream.DefaultChunkItems
	edges := s.Edges()
	for p := 0; p < a.Passes(); p++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		a.StartPass(p)
		for lo := 0; lo < len(edges); lo += chunk {
			if lo > 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			for _, e := range edges[lo:min(lo+chunk, len(edges))] {
				a.Edge(e.U, e.V)
			}
		}
		a.EndPass(p)
	}
	return nil
}

// TwoPassWedge is the const-pass arbitrary-order estimator family behind
// the Θ(m^{3/2}/T) bound: pass one hash-samples edges with probability p
// and forms the wedges inside the sample; pass two sees every edge again
// and closes sampled wedges exactly. Each triangle has three wedges, each
// present with probability p², so T̂ = closed/(3p²) is unbiased. The space
// is the edge sample plus the wedge set; at p = Θ(√m/T) that is the
// Θ(m^{3/2}/T) of Table 1's const-pass arbitrary-order rows. A wedge is
// kept only as a count on its open pair: every edge appears once in pass
// two, so the edge closing a pair closes all of its wedges at once.
type TwoPassWedge struct {
	p       float64
	sampler sampling.FixedProb

	vertices vertexIndex
	incident adjacency
	byPair   flat.Table // PackEdge of a wedge's open pair → wedges on it
	wedges   int64
	closed   int64

	pass  int
	items int64
	m     int64
	meter space.Meter
}

var _ Estimator = (*TwoPassWedge)(nil)

var twoPassWedges flat.Pool[TwoPassWedge]

// NewTwoPassWedge returns the estimator with edge-sampling probability p,
// built on a recycled state when there is one.
func NewTwoPassWedge(p float64, seed uint64) (*TwoPassWedge, error) {
	if p <= 0 || p > 1 {
		return nil, fmt.Errorf("arbitrary: sampling probability %v out of (0,1]", p)
	}
	t := twoPassWedges.Get()
	if err := t.init(p, seed); err != nil {
		return nil, err
	}
	return t, nil
}

// init makes t a fresh estimator, keeping the memory of its state.
func (t *TwoPassWedge) init(p float64, seed uint64) error {
	if err := t.sampler.Init(p, seed); err != nil {
		return err
	}
	t.p = p
	t.vertices.reset()
	t.incident.reset()
	t.byPair.Reset()
	t.wedges, t.closed = 0, 0
	t.pass, t.items, t.m = 0, 0, 0
	t.meter = space.Meter{}
	return nil
}

// Recycle hands t's state to a later NewTwoPassWedge, which reuses its
// memory. Call it once t's run has completed and every result read from t
// is taken; t must not be used afterwards.
func (t *TwoPassWedge) Recycle() { twoPassWedges.Put(t) }

// Passes implements Algorithm.
func (t *TwoPassWedge) Passes() int { return 2 }

// StartPass implements Algorithm.
func (t *TwoPassWedge) StartPass(p int) { t.pass = p }

// Edge implements Algorithm.
func (t *TwoPassWedge) Edge(u, v graph.V) {
	switch t.pass {
	case 0:
		t.items++
		if t.sampler.Offer(u, v) {
			e := graph.Edge{U: u, V: v}.Norm()
			t.addSampled(t.vertices.intern(e.U), t.vertices.intern(e.V))
		}
	case 1:
		if w, ok := t.byPair.Get(sampling.PackEdge(u, v)); ok {
			t.closed += int64(w)
		}
	}
}

// addSampled stores the wedges the sampled edge {a, b} (vertex ids, a's
// name the smaller) forms with the sample so far, each as a count on its
// open pair's names, which pass two looks up.
func (t *TwoPassWedge) addSampled(a, b int32) {
	names := t.vertices.names
	for _, c := range [2]int32{a, b} {
		other := b
		if c == b {
			other = a
		}
		for _, x := range t.incident.nbrs(c) {
			if x == other {
				continue
			}
			t.wedges++
			key := sampling.PackEdge(names[x], names[other])
			w, _ := t.byPair.Get(key)
			t.byPair.Put(key, w+1)
			t.meter.Charge(space.WordsPerWedge)
		}
	}
	t.incident.add(a, b)
	t.incident.add(b, a)
	t.meter.Charge(space.WordsPerEdge)
}

// EndPass implements Algorithm.
func (t *TwoPassWedge) EndPass(p int) {
	if p == 0 {
		t.m = t.items
	}
}

// Estimate returns closed/(3p²).
func (t *TwoPassWedge) Estimate() float64 {
	return float64(t.closed) / (3 * t.p * t.p)
}

// WedgesFormed returns the number of wedges stored after pass one.
func (t *TwoPassWedge) WedgesFormed() int64 { return t.wedges }

// SpaceWords implements Estimator.
func (t *TwoPassWedge) SpaceWords() int64 { return t.meter.Peak() }

// M returns the edge count measured in pass one.
func (t *TwoPassWedge) M() int64 { return t.m }

// BuriolSampler is the classic one-pass arbitrary-order estimator of
// Buriol et al.: R independent instances each hold a uniform stream edge
// (reservoir) and a uniform third vertex from [n]\{endpoints}, and succeed
// if both completing edges appear after the sampled edge. For any fixed
// stream order exactly one edge of each triangle (its first-arriving one)
// can succeed, so E[successes] = R·T/(m·(n-2)) and
// T̂ = successes·m·(n-2)/R is unbiased. It needs the vertex universe size n
// up front (the standard assumption in that line of work) and Ω(mn/T)
// instances for concentration — the weakness that motivated all subsequent
// work in both models.
type BuriolSampler struct {
	n   int64
	pcg rand.PCG
	rng *rand.Rand // draws from pcg; bound once

	inst []buriolInstance

	pos   int64
	m     int64
	meter space.Meter
}

type buriolInstance struct {
	e      graph.Edge // sampled edge (valid if havee)
	w      graph.V    // sampled third vertex
	havee  bool
	gotUW  bool
	gotVW  bool
	closed bool
}

var _ Estimator = (*BuriolSampler)(nil)

var buriolSamplers flat.Pool[BuriolSampler]

// NewBuriolSampler returns a sampler with r independent instances over the
// vertex universe {0, …, n-1}, built on a recycled state when there is one.
func NewBuriolSampler(r int, n int64, seed uint64) (*BuriolSampler, error) {
	if r < 1 {
		return nil, fmt.Errorf("arbitrary: instance count %d < 1", r)
	}
	if n < 3 {
		return nil, fmt.Errorf("arbitrary: vertex universe %d < 3", n)
	}
	b := buriolSamplers.Get()
	b.init(r, n, seed)
	return b, nil
}

// init makes b a fresh sampler, reseeding its generator in place and
// keeping the memory of its instances.
func (b *BuriolSampler) init(r int, n int64, seed uint64) {
	b.n = n
	b.pcg.Seed(seed, seed^0x3c79_ac49_2ba7_b653)
	if b.rng == nil {
		b.rng = rand.New(&b.pcg)
	}
	b.inst = slices.Grow(b.inst[:0], r)[:r]
	clear(b.inst)
	b.pos, b.m = 0, 0
	b.meter = space.Meter{}
	b.meter.Charge(int64(r) * (space.WordsPerEdge + 2))
}

// Recycle hands b's state to a later NewBuriolSampler, which reuses its
// memory. Call it once b's run has completed and every result read from b
// is taken; b must not be used afterwards.
func (b *BuriolSampler) Recycle() { buriolSamplers.Put(b) }

// Passes implements Algorithm.
func (b *BuriolSampler) Passes() int { return 1 }

// StartPass implements Algorithm.
func (b *BuriolSampler) StartPass(p int) {}

// Edge implements Algorithm.
func (b *BuriolSampler) Edge(u, v graph.V) {
	b.pos++
	e := graph.Edge{U: u, V: v}.Norm()
	for i := range b.inst {
		in := &b.inst[i]
		// Reservoir over edges: replace with probability 1/pos.
		if b.rng.Int64N(b.pos) == 0 {
			in.e = e
			in.havee = true
			// Uniform third vertex, resampled on edge replacement; avoid
			// the endpoints (the classical estimator uses n-2 for this).
			for {
				w := graph.V(b.rng.Int64N(b.n))
				if w != e.U && w != e.V {
					in.w = w
					break
				}
			}
			in.gotUW, in.gotVW, in.closed = false, false, false
			continue
		}
		if !in.havee || in.closed {
			continue
		}
		if (e == graph.Edge{U: in.e.U, V: in.w}.Norm()) {
			in.gotUW = true
		}
		if (e == graph.Edge{U: in.e.V, V: in.w}.Norm()) {
			in.gotVW = true
		}
		if in.gotUW && in.gotVW {
			in.closed = true
		}
	}
}

// EndPass implements Algorithm.
func (b *BuriolSampler) EndPass(p int) { b.m = b.pos }

// Estimate returns successes·m·(n-2)/R.
func (b *BuriolSampler) Estimate() float64 {
	return float64(b.closed()) * float64(b.m) * float64(b.n-2) / float64(len(b.inst))
}

// closed returns the number of instances whose triangle closed.
func (b *BuriolSampler) closed() int64 {
	var succ int64
	for i := range b.inst {
		if b.inst[i].closed {
			succ++
		}
	}
	return succ
}

// SpaceWords implements Estimator.
func (b *BuriolSampler) SpaceWords() int64 { return b.meter.Peak() }

// M returns the measured edge count.
func (b *BuriolSampler) M() int64 { return b.m }
