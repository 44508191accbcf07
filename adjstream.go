// Package adjstream is a Go implementation of the cycle counting algorithms
// and lower-bound constructions of "The Complexity of Counting Cycles in the
// Adjacency List Streaming Model" (Kallaugher, McGregor, Price, Vorotnikova;
// PODS 2019).
//
// The package is the public facade over the implementation packages:
//
//   - the two-pass Õ(m/T^{2/3}) (1±ε) triangle estimator (Theorem 3.7),
//   - the two-pass Õ(m/T^{3/8}) O(1)-approximate 4-cycle estimator
//     (Theorem 4.6),
//   - the prior-work baselines of Table 1 (one-pass edge sampling, wedge
//     sampling, the naive two-pass estimator/distinguisher, the three-pass
//     exact-load variant, and the trivial exact counter), and
//   - the communication-game reductions of Section 5 (via internal/comm
//     and internal/lb, exercised by cmd/experiments and the benchmarks).
//
// # Quick start
//
//	g, _ := adjstream.ReadEdgeListFile("graph.txt")
//	s := adjstream.SortedStream(g)
//	res, err := adjstream.Estimate(s, adjstream.Options{
//		Algorithm:  adjstream.AlgoTwoPassTriangle,
//		SampleProb: 0.05,
//		Copies:     9,
//		Seed:       1,
//	})
//	fmt.Printf("≈%.0f triangles using %d words\n", res.Estimate, res.SpaceWords)
//
// All estimators consume streams in the adjacency list model: every edge
// appears once in each endpoint's list and lists are contiguous. Stream
// construction, validation, and file I/O are re-exported here.
package adjstream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"

	"adjstream/internal/arbitrary"
	"adjstream/internal/baseline"
	"adjstream/internal/core"
	"adjstream/internal/graph"
	"adjstream/internal/stats"
	"adjstream/internal/stream"
)

// Re-exported fundamental types. These aliases make the public API
// self-contained while the implementation lives in internal packages.
type (
	// V is a vertex identifier.
	V = graph.V
	// Edge is an undirected edge.
	Edge = graph.Edge
	// Graph is an immutable simple undirected graph with exact counters.
	Graph = graph.Graph
	// Builder accumulates edges into a Graph.
	Builder = graph.Builder
	// Delta stages edge additions/removals against an immutable Graph and
	// merges them copy-on-write into a new Graph (live ingestion).
	Delta = graph.Delta
	// Stream is a validated adjacency-list stream.
	Stream = stream.Stream
	// Item is one stream element (owner, neighbor).
	Item = stream.Item
	// Estimator is a multi-pass streaming estimator.
	Estimator = stream.Estimator
	// DriverStats reports the stream-traversal counters of an
	// adjacency-list k-copy run (stream items read and delivered, chunks
	// walked, workers, their finish-time spread).
	DriverStats = stream.DriverStats
	// ArbitraryStream is a validated arbitrary-order edge stream — the
	// model the paper contrasts with the adjacency-list promise: every edge
	// exactly once, adversarial order, no locality. Used with
	// Options.Model = ModelArbitrary.
	ArbitraryStream = arbitrary.Stream
	// ArbitraryEstimator is a multi-pass estimator over an ArbitraryStream.
	ArbitraryEstimator = arbitrary.Estimator
)

// NewBuilder returns an empty graph builder.
func NewBuilder() *Builder { return graph.NewBuilder() }

// FromEdges builds a graph from an edge list, rejecting self-loops and
// duplicates.
func FromEdges(edges []Edge) (*Graph, error) { return graph.FromEdges(edges) }

// NewDelta returns an empty mutation buffer staged against base; Apply
// merges it into a new immutable Graph sharing untouched adjacency lists
// with base (copy-on-write).
func NewDelta(base *Graph) *Delta { return graph.NewDelta(base) }

// SortedStream returns the canonical deterministic stream of g (lists in
// ascending vertex order, sorted neighbors).
func SortedStream(g *Graph) *Stream { return stream.Sorted(g) }

// RandomStream returns a uniformly random adjacency-list ordering of g.
func RandomStream(g *Graph, seed uint64) *Stream { return stream.Random(g, seed) }

// ReadStream parses a text stream ("owner neighbor" per line) and validates
// the adjacency-list promise.
func ReadStream(r io.Reader) (*Stream, error) { return stream.ReadText(r) }

// WriteStream writes s in the text format accepted by ReadStream.
func WriteStream(w io.Writer, s *Stream) error { return stream.WriteText(w, s) }

// ReadEdgeList parses an undirected edge list ("u v" per line).
func ReadEdgeList(r io.Reader) (*Graph, error) { return stream.ReadEdgeList(r) }

// WriteEdgeList writes g as an edge list.
func WriteEdgeList(w io.Writer, g *Graph) error { return stream.WriteEdgeList(w, g) }

// ReadEdgeListFile reads an edge-list file from disk.
func ReadEdgeListFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("adjstream: %w", err)
	}
	defer f.Close()
	return ReadEdgeList(f)
}

// ReadStreamFile reads a stream file from disk, sniffing the format by its
// 4-byte magic: "adjC" columnar, anything else text.
// The returned stream owns its memory; use OpenStreamFile to memory-map a
// columnar file instead of copying it.
func ReadStreamFile(path string) (*Stream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("adjstream: %w", err)
	}
	defer f.Close()
	s, err := stream.ReadAny(f)
	if err != nil {
		return nil, fmt.Errorf("adjstream: %w", err)
	}
	return s, nil
}

// MappedStream is a Stream backed by a memory-mapped columnar file; see
// OpenMappedStream.
type MappedStream = stream.Mapped

// OpenMappedStream memory-maps a columnar ("adjC") stream file written by
// WriteStreamFile or genstream -format colstream. Replay touches the mapped
// pages directly — no parse cost, no heap copy of the columns. Close the
// returned stream when done.
func OpenMappedStream(path string) (*MappedStream, error) {
	return stream.OpenMapped(path)
}

// OpenStreamFile opens a stream file of any supported format, memory-mapping
// columnar files and reading the others. The returned closer must be called
// once the stream is no longer used; it is never nil.
func OpenStreamFile(path string) (*Stream, func() error, error) {
	return stream.OpenFile(path)
}

// WriteStreamFile writes s to path in the mmap-able columnar format read by
// OpenMappedStream.
func WriteStreamFile(path string, s *Stream) error {
	return stream.WriteFile(path, s)
}

// NewArbitraryStream derives an arbitrary-order edge stream from an
// adjacency-list stream: each edge is emitted once, at the position of its
// first occurrence in s. The derivation is deterministic, so the two models
// can be A/B-compared on the same input — Estimate with
// Options.Model = ModelArbitrary uses exactly this conversion.
func NewArbitraryStream(s *Stream) *ArbitraryStream {
	return arbitrary.FromAdjacencyStream(s)
}

// ArbitraryStreamFromGraph returns g's edges in a uniformly random order
// under seed.
func ArbitraryStreamFromGraph(g *Graph, seed uint64) *ArbitraryStream {
	return arbitrary.FromGraph(g, seed)
}

// ArbitraryStreamFromEdges validates (vertex ids in [0, 2³²−1], no
// self-loops, no duplicates in either orientation) and copies an explicit
// edge sequence.
func ArbitraryStreamFromEdges(edges []Edge) (*ArbitraryStream, error) {
	s, err := arbitrary.FromEdges(edges)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidOptions, err)
	}
	return s, nil
}

// ReadArbitraryStream parses one "u v" edge per line (blank lines and
// #-comments skipped) — the format genstream -format arbstream emits — and
// returns the stream in file order.
func ReadArbitraryStream(r io.Reader) (*ArbitraryStream, error) {
	s, err := arbitrary.ReadEdges(r)
	if err != nil {
		return nil, fmt.Errorf("adjstream: %w", err)
	}
	return s, nil
}

// Driver names the execution driver of parallel median copies. The only
// driver is DriverBroadcast; the empty Driver selects it too.
type Driver string

// DriverBroadcast names how parallel adjacency-list copies run: on the
// bounded copy pool, min(k, GOMAXPROCS) workers each building, running and
// recycling one copy at a time, every copy reading the stream itself. The
// name is kept from the driver the pool replaced, which shared one read of
// each pass among all copies; Result.Driver and the service's driver echo
// still carry it.
const DriverBroadcast Driver = "broadcast"

// Model selects the streaming model an estimator runs in. The paper's
// central question is what the adjacency-list promise buys over arbitrary
// edge order; exposing the model as an option lets the two columns of that
// comparison run through one API.
type Model string

// The available streaming models.
const (
	// ModelAdjacencyList is the paper's model (the default, also selected
	// by an empty Model): every edge appears once in each endpoint's list
	// and lists are contiguous.
	ModelAdjacencyList Model = "adjacency-list"
	// ModelArbitrary is the classic insertion-only model: every edge
	// exactly once, in adversarial order, no locality promise. Estimate
	// derives the edge order from the adjacency-list stream by first
	// occurrence; EstimateArbitraryContext accepts an explicit
	// ArbitraryStream.
	ModelArbitrary Model = "arbitrary"
)

// Models lists every selectable streaming model.
func Models() []Model { return []Model{ModelAdjacencyList, ModelArbitrary} }

// Algorithm selects an estimator.
type Algorithm string

// The available algorithms.
const (
	// AlgoTwoPassTriangle is the paper's main Õ(m/T^{2/3}) two-pass (1±ε)
	// triangle estimator (Theorem 3.7).
	AlgoTwoPassTriangle Algorithm = "twopass-triangle"
	// AlgoThreePassTriangle is the Section 2.1 three-pass exact-load
	// variant (Table 1 row 4 representative).
	AlgoThreePassTriangle Algorithm = "threepass-triangle"
	// AlgoNaiveTwoPass is the naive two-pass edge-sample estimator and
	// 0-vs-T distinguisher (Table 1 rows 3 and 5).
	AlgoNaiveTwoPass Algorithm = "naive-twopass"
	// AlgoOnePassTriangle is the Õ(m/√T)-style one-pass estimator
	// (Table 1 row 2).
	AlgoOnePassTriangle Algorithm = "onepass-triangle"
	// AlgoWedgeSampler is the one-pass wedge-sampling estimator, unbiased
	// under random list order (Table 1 row 1 representative).
	AlgoWedgeSampler Algorithm = "wedge-sampler"
	// AlgoTwoPassFourCycle is the paper's Õ(m/T^{3/8}) two-pass O(1)-approx
	// 4-cycle estimator (Theorem 4.6).
	AlgoTwoPassFourCycle Algorithm = "twopass-fourcycle"
	// AlgoAdaptiveTriangle is the two-pass triangle estimator with an
	// online-shrinking budget for when T is unknown; SampleSize is the
	// initial (maximum) budget.
	AlgoAdaptiveTriangle Algorithm = "adaptive-triangle"
	// AlgoExact is the trivial O(m) exact counter (any cycle length ≥ 3 via
	// CycleLen).
	AlgoExact Algorithm = "exact"
)

// The arbitrary-order algorithms (Options.Model = ModelArbitrary).
const (
	// AlgoArbTwoPassWedge is the const-pass arbitrary-order triangle
	// estimator behind the Θ(m^{3/2}/T) bound: sample edges at SampleProb,
	// form wedges in the sample, close them exactly in pass two.
	AlgoArbTwoPassWedge Algorithm = "arb-twopass-wedge"
	// AlgoArbBuriol is the classic one-pass Buriol et al. triangle sampler:
	// SampleSize independent (edge, third-vertex) instances.
	AlgoArbBuriol Algorithm = "arb-buriol"
	// AlgoArbThreePassFourCycle is Vorotnikova's improved three-pass
	// 4-cycle estimator (arXiv 2007.13466): wedges sampled at SampleProb²,
	// exact co-degrees via the pair-closure passes.
	AlgoArbThreePassFourCycle Algorithm = "arb-threepass-fourcycle"
	// AlgoArbNearOptFourCycle is the Lüderssen–Neumann–Peng near-optimal
	// (1±ε) three-pass 4-cycle estimator (arXiv 2604.00828): an estimation
	// sample at SampleProb plus a √SampleProb discovery sample, combined
	// with exact inclusion probabilities.
	AlgoArbNearOptFourCycle Algorithm = "arb-nearopt-fourcycle"
)

// Algorithms lists every selectable adjacency-list algorithm. It predates
// the model axis and keeps its original roster for compatibility; use
// AlgorithmsForModel for the per-model listing.
func Algorithms() []Algorithm {
	return AlgorithmsForModel(ModelAdjacencyList)
}

// AlgorithmsForModel lists the algorithms selectable under the given model
// (nil for an unknown model).
func AlgorithmsForModel(m Model) []Algorithm {
	switch m {
	case "", ModelAdjacencyList:
		return []Algorithm{
			AlgoTwoPassTriangle, AlgoThreePassTriangle, AlgoNaiveTwoPass,
			AlgoOnePassTriangle, AlgoWedgeSampler, AlgoTwoPassFourCycle,
			AlgoAdaptiveTriangle, AlgoExact,
		}
	case ModelArbitrary:
		return []Algorithm{
			AlgoArbTwoPassWedge, AlgoArbBuriol,
			AlgoArbThreePassFourCycle, AlgoArbNearOptFourCycle,
		}
	default:
		return nil
	}
}

// Options configures an estimator.
type Options struct {
	// Algorithm selects the estimator; required.
	Algorithm Algorithm
	// Model selects the streaming model: ModelAdjacencyList (the default,
	// also selected by an empty Model) or ModelArbitrary. The algorithm
	// must belong to the selected model (see AlgorithmsForModel), and
	// Driver must be empty for arbitrary runs, since the driver name
	// describes adjacency-list runs. Both models run their copies on the
	// same bounded pool.
	Model Model
	// SampleSize m′ selects bottom-k edge sampling (a uniform size-m′
	// sample). Exactly one of SampleSize / SampleProb must be set for the
	// sampling algorithms; both are ignored by AlgoExact.
	SampleSize int
	// SampleProb selects independent hash sampling with this probability.
	SampleProb float64
	// PairCap bounds the candidate pair/wedge reservoir where applicable
	// (0 = algorithm default).
	PairCap int
	// CycleLen is the cycle length for AlgoExact (default 3).
	CycleLen int
	// Copies > 1 runs that many independent copies in parallel and returns
	// the median — the paper's amplification to success probability 1-δ.
	// Mutually exclusive with Confidence.
	Copies int
	// Confidence, if set in (0,1), derives Copies from δ = 1-Confidence.
	Confidence float64
	// Parallel runs median copies concurrently, in either model: on
	// min(copies, GOMAXPROCS) workers, each building, running and recycling
	// one copy at a time, so a run holds at most that many copy states
	// (one without Parallel). Results are identical to the sequential run;
	// only wall time changes.
	Parallel bool
	// Driver must be empty or DriverBroadcast, the one name for parallel
	// adjacency-list runs. Only meaningful with Parallel and more than one
	// copy.
	Driver Driver
	// Seed drives all randomness deterministically.
	Seed uint64
}

// Result reports an estimation run.
type Result struct {
	// Estimate is the (median) cycle count estimate.
	Estimate float64
	// SpaceWords is the peak state in machine words (summed over copies).
	SpaceWords int64
	// Passes is the number of passes taken over the stream.
	Passes int
	// M is the edge count observed in the first pass (0 for estimators
	// that do not track it).
	M int64
	// Copies is the number of independent copies actually run.
	Copies int
	// Driver is the execution driver that produced this result
	// (DriverBroadcast for parallel adjacency-list runs of more than one
	// copy, "" otherwise).
	Driver Driver
	// DriverStats holds the stream-traversal counters of an adjacency-list
	// run (zero value for arbitrary-order runs).
	DriverStats DriverStats
}

// copies resolves the copy count of validated options (call Validate first:
// Copies/Confidence conflicts and ranges are checked there).
func (o Options) copies() int {
	if o.Confidence > 0 {
		return stats.CopiesForConfidence(1 - o.Confidence)
	}
	if o.Copies == 0 {
		return 1
	}
	return o.Copies
}

// newSingle builds one copy with the given seed.
func (o Options) newSingle(seed uint64) (Estimator, error) {
	tcfg := core.TriangleConfig{
		SampleSize: o.SampleSize,
		SampleProb: o.SampleProb,
		PairCap:    o.PairCap,
		Seed:       seed,
	}
	bcfg := baseline.Config{
		SampleSize: o.SampleSize,
		SampleProb: o.SampleProb,
		WedgeCap:   o.PairCap,
		Seed:       seed,
	}
	switch o.Algorithm {
	case AlgoTwoPassTriangle:
		return core.NewTwoPassTriangle(tcfg)
	case AlgoThreePassTriangle:
		return core.NewThreePassTriangle(tcfg)
	case AlgoNaiveTwoPass:
		return core.NewNaiveTwoPass(tcfg)
	case AlgoOnePassTriangle:
		return baseline.NewOnePassTriangle(bcfg)
	case AlgoWedgeSampler:
		return baseline.NewWedgeSampler(bcfg)
	case AlgoTwoPassFourCycle:
		return core.NewTwoPassFourCycle(core.FourCycleConfig{
			SampleSize: o.SampleSize,
			SampleProb: o.SampleProb,
			WedgeCap:   o.PairCap,
			Seed:       seed,
		})
	case AlgoAdaptiveTriangle:
		return core.NewAdaptiveTwoPassTriangle(core.AdaptiveConfig{
			InitialSample: o.SampleSize,
			PairCap:       o.PairCap,
			Seed:          seed,
		})
	case AlgoExact:
		l := o.CycleLen
		if l == 0 {
			l = 3
		}
		return baseline.NewExactStream(l)
	case "":
		return nil, fmt.Errorf("%w: Algorithm is required", ErrInvalidOptions)
	default:
		return nil, fmt.Errorf("%w %q", ErrUnknownAlgorithm, o.Algorithm)
	}
}

// wrapSingle invokes newSingle and folds constructor rejections (budget
// rules the estimators enforce themselves) into ErrInvalidOptions.
func (o Options) wrapSingle(seed uint64) (Estimator, error) {
	e, err := o.newSingle(seed)
	if err != nil {
		if errors.Is(err, ErrInvalidOptions) || errors.Is(err, ErrUnknownAlgorithm) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %w", ErrInvalidOptions, err)
	}
	return e, nil
}

// copySeed is the seed of copy i in a k-copy run: Seed itself for a single
// copy, otherwise Seed plus i fixed strides plus one. It depends only on
// Seed, i and k, never on how the copies are split into ranges, which is
// what makes a split run bit-identical to an unsplit one.
func (o Options) copySeed(i, k int) uint64 {
	if k == 1 {
		return o.Seed
	}
	return o.Seed + uint64(i)*0x9e37_79b9 + 1
}

// workers is the copy pool's worker limit: GOMAXPROCS when Parallel is
// set, one otherwise (the pool never runs more workers than copies).
func (o Options) workers() int {
	if !o.Parallel {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// seeded is the copy pool's build step for copies [lo, hi) of o's k-copy
// run: pool index i builds copy lo+i from newCopy(o.copySeed(lo+i, k)).
func seeded[E any](o Options, lo int, newCopy func(seed uint64) (E, error)) func(i int) (E, error) {
	k := o.copies()
	return func(i int) (E, error) { return newCopy(o.copySeed(lo+i, k)) }
}

// handOff is the copy pool's done step: read takes what the caller keeps
// from the copy, whose state is then recycled when its type allows.
func handOff[E stream.Summary](read func(i int, c stream.Summary) error) func(i int, e E) error {
	return func(i int, e E) error {
		if err := read(i, e); err != nil {
			return err
		}
		if r, ok := any(e).(recycler); ok {
			r.Recycle()
		}
		return nil
	}
}

// runCopies runs copies [lo, hi) of o's k-copy run over s on the copy
// pool: each copy is built from its seed by newCopy, walked over s, handed
// to read (i counts from 0 at lo) and recycled. Exact copies count their
// cycles once per run, under ctx: the first to finish counts, and the
// others, which read the same stream and ignore their seeds, take its
// count. A canceled run returns ErrCanceled.
func (o Options) runCopies(ctx context.Context, s *Stream, lo, hi int, newCopy func(seed uint64) (Estimator, error), read func(i int, c stream.Summary) error) (DriverStats, error) {
	var (
		mu    sync.Mutex
		count *float64 // the run's cycle count, once an exact copy has counted
	)
	finish := func(ex *baseline.ExactStream) error {
		mu.Lock()
		defer mu.Unlock()
		if count != nil {
			ex.FinishWith(*count)
			return nil
		}
		if err := ex.Finish(ctx); err != nil {
			return err
		}
		n := ex.Estimate()
		count = &n
		return nil
	}
	done := handOff[Estimator](read)
	st, err := stream.RunCopiesContext(ctx, s, hi-lo, o.workers(), seeded(o, lo, newCopy),
		func(i int, e Estimator) error {
			if ex, ok := e.(*baseline.ExactStream); ok {
				if err := finish(ex); err != nil {
					return err
				}
			}
			return done(i, e)
		})
	return st, canceled(err)
}

// arbitraryCopies is runCopies for arbitrary-order copies: the same pool,
// seed schedule and hand-off, each copy replaying the edge sequence of as.
func (o Options) arbitraryCopies(ctx context.Context, as *ArbitraryStream, lo, hi int, newCopy func(seed uint64) (arbitrary.Estimator, error), read func(i int, c stream.Summary) error) error {
	_, err := stream.RunPool(hi-lo, o.workers(), seeded(o, lo, newCopy),
		func(e arbitrary.Estimator) error { return arbitrary.RunContext(ctx, as, e) },
		handOff[arbitrary.Estimator](read))
	return canceled(err)
}

// median collects the estimates and space words of a k-copy run.
type median struct {
	ests   []float64
	words  []int64
	passes int
}

func newMedian(k int) *median { return &median{ests: make([]float64, k), words: make([]int64, k)} }

// read keeps copy i's estimate and space words, and copy 0's pass count.
func (m *median) read(i int, c stream.Summary) error {
	m.ests[i], m.words[i] = c.Estimate(), c.SpaceWords()
	if i == 0 {
		m.passes = c.Passes()
	}
	return nil
}

// result is the run's Result over a stream of edges edges: the median
// estimate and the summed space words.
func (m *median) result(edges int64) Result {
	var sp int64
	for _, w := range m.words {
		sp += w
	}
	return Result{
		Estimate:   stats.Median(m.ests),
		SpaceWords: sp,
		Passes:     m.passes,
		M:          edges,
		Copies:     len(m.ests),
	}
}

// adjacencyResult is the Result of o's adjacency-list run over s that m
// collected and st counted.
func (o Options) adjacencyResult(m *median, s *Stream, st DriverStats) Result {
	res := m.result(s.M())
	if o.Parallel && res.Copies > 1 {
		res.Driver = DriverBroadcast
	}
	res.DriverStats = st
	return res
}

// newArbitrary builds one arbitrary-order copy with the given seed. n is the
// stream's vertex-universe size (the Buriol line needs it up front).
func (o Options) newArbitrary(seed uint64, n int64) (arbitrary.Estimator, error) {
	var (
		e   arbitrary.Estimator
		err error
	)
	switch o.Algorithm {
	case AlgoArbBuriol:
		if o.SampleProb != 0 {
			return nil, fmt.Errorf("%w: %q takes SampleSize (instance count), not SampleProb", ErrInvalidOptions, o.Algorithm)
		}
		e, err = arbitrary.NewBuriolSampler(o.SampleSize, n, seed)
	case AlgoArbTwoPassWedge, AlgoArbThreePassFourCycle, AlgoArbNearOptFourCycle:
		if o.SampleSize != 0 {
			return nil, fmt.Errorf("%w: %q takes SampleProb, not SampleSize", ErrInvalidOptions, o.Algorithm)
		}
		switch o.Algorithm {
		case AlgoArbTwoPassWedge:
			e, err = arbitrary.NewTwoPassWedge(o.SampleProb, seed)
		case AlgoArbThreePassFourCycle:
			e, err = arbitrary.NewThreePassFourCycle(o.SampleProb, seed)
		default:
			e, err = arbitrary.NewNearOptFourCycle(o.SampleProb, 0, seed)
		}
	default:
		return nil, fmt.Errorf("%w %q", ErrUnknownAlgorithm, o.Algorithm)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidOptions, err)
	}
	return e, nil
}

// NewEstimator builds one copy of the configured estimator, seeded with
// opts.Seed, for callers that drive it themselves. Options asking for more
// than one copy (Copies or Confidence) are rejected: a median of copies runs
// through EstimateContext. Errors wrap ErrUnknownAlgorithm or
// ErrInvalidOptions. Arbitrary-order estimators are not stream.Estimators —
// for Model = ModelArbitrary use EstimateContext or
// EstimateArbitraryContext, which drive the copies themselves.
func NewEstimator(opts Options) (Estimator, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Model == ModelArbitrary {
		return nil, fmt.Errorf("%w: Model %q estimators run over edge streams, not adjacency-list streams; use EstimateContext or EstimateArbitraryContext", ErrInvalidOptions, opts.Model)
	}
	if c := opts.copies(); c > 1 {
		return nil, fmt.Errorf("%w: NewEstimator builds one copy, Options ask for %d; run a median of copies with EstimateContext", ErrInvalidOptions, c)
	}
	return opts.wrapSingle(opts.Seed)
}

// DistinguishContext answers the decision problem under ctx using the
// sublinear distinguishers where they exist: the two-pass Θ(m/T^{2/3})
// triangle distinguisher (Table 1 row 5) for cycleLen 3, the two-pass
// Θ(m/T^{3/8}) estimator for cycleLen 4, and the exact O(m) counter for
// cycleLen ≥ 5 (where Theorem 5.5 rules out anything sublinear).
//
// The algorithm (and, for cycleLen ≥ 5, the cycle length) is derived from
// cycleLen, so opts.Algorithm and opts.CycleLen must be zero. Every other
// option behaves exactly as in EstimateContext — in particular Copies,
// Confidence, Parallel, and Driver run the distinguisher through the same
// copy pool as Estimate, amplifying the decision by median. When
// neither SampleSize nor SampleProb is set for the sublinear cases, the
// budget defaults to SampleProb 0.25. Cancellation surfaces as ErrCanceled.
func DistinguishContext(ctx context.Context, s *Stream, cycleLen int, opts Options) (found bool, res Result, err error) {
	if cycleLen < 3 {
		return false, Result{}, fmt.Errorf("%w: cycle length %d < 3", ErrInvalidOptions, cycleLen)
	}
	if opts.Algorithm != "" {
		return false, Result{}, fmt.Errorf("%w: DistinguishContext derives Algorithm from cycleLen; leave it empty", ErrInvalidOptions)
	}
	if opts.CycleLen != 0 {
		return false, Result{}, fmt.Errorf("%w: DistinguishContext derives CycleLen from cycleLen; leave it zero", ErrInvalidOptions)
	}
	switch {
	case cycleLen == 3:
		opts.Algorithm = AlgoNaiveTwoPass
	case cycleLen == 4:
		opts.Algorithm = AlgoTwoPassFourCycle
	default:
		opts.Algorithm = AlgoExact
		opts.CycleLen = cycleLen
		opts.SampleSize, opts.SampleProb = 0, 0
	}
	if cycleLen < 5 && opts.SampleSize == 0 && opts.SampleProb == 0 {
		opts.SampleProb = 0.25
	}
	res, err = EstimateContext(ctx, s, opts)
	if err != nil {
		return false, Result{}, err
	}
	return res.Estimate > 0, res, nil
}

// LocalEstimateContext runs the two-pass semi-streaming local triangle
// estimator (per-vertex counts) at edge-sampling probability p under ctx,
// through the same copy pool as EstimateContext: Copies/Confidence select k
// independent copies (per-copy seeds on the standard schedule), Parallel
// chooses how many run at once, the returned map is the
// per-vertex median across copies (a vertex untouched by a copy counts as
// 0 there), Result.Estimate is the median of the copies' global estimates,
// and Result.SpaceWords their summed peaks. With p = 1 the counts are
// exact. The algorithm is fixed, so opts.Algorithm must be empty, and the
// sampling probability is the p argument — opts.SampleSize/SampleProb/
// PairCap/CycleLen must be zero. Cancellation surfaces as ErrCanceled.
func LocalEstimateContext(ctx context.Context, s *Stream, p float64, opts Options) (map[V]float64, Result, error) {
	if opts.Algorithm != "" {
		return nil, Result{}, fmt.Errorf("%w: LocalEstimateContext has a fixed algorithm; leave Algorithm empty", ErrInvalidOptions)
	}
	if opts.SampleSize != 0 || opts.SampleProb != 0 || opts.PairCap != 0 || opts.CycleLen != 0 {
		return nil, Result{}, fmt.Errorf("%w: LocalEstimateContext takes its sampling probability as the p argument; leave the Options budget fields zero", ErrInvalidOptions)
	}
	chk := opts
	chk.Algorithm = AlgoExact // stand-in: validates driver/copies/ranges
	if err := chk.Validate(); err != nil {
		return nil, Result{}, err
	}
	k := opts.copies()
	med := newMedian(k)
	counts := make([]map[V]float64, k)
	st, err := opts.runCopies(ctx, s, 0, k, func(seed uint64) (Estimator, error) {
		alg, err := baseline.NewLocalTriangles(p, seed)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrInvalidOptions, err)
		}
		return alg, nil
	}, func(i int, c stream.Summary) error {
		counts[i] = c.(*baseline.LocalTriangles).Counts()
		return med.read(i, c)
	})
	if err != nil {
		return nil, Result{}, err
	}
	return localMedian(counts), opts.adjacencyResult(med, s, st), nil
}

// localMedian combines the local counts of completed LocalTriangles copies
// into the per-vertex median map. A single copy's map is returned as-is
// (shared; do not modify).
func localMedian(counts []map[V]float64) map[V]float64 {
	if len(counts) == 1 {
		return counts[0]
	}
	out := make(map[V]float64)
	vals := make([]float64, len(counts))
	for _, cm := range counts {
		for v := range cm {
			if _, done := out[v]; done {
				continue
			}
			for i, other := range counts {
				vals[i] = other[v] // 0 when the copy never touched v
			}
			out[v] = stats.Median(vals)
		}
	}
	return out
}

// Estimate builds the estimator for opts, runs it over s, and reports the
// result. It is the backward-compatible wrapper over EstimateContext with a
// context that never fires.
func Estimate(s *Stream, opts Options) (Result, error) {
	return EstimateContext(context.Background(), s, opts)
}

// EstimateContext builds the estimator for opts, runs it over s under ctx,
// and reports the result. The copies run on the copy pool (see
// Options.Parallel), so a run holds at most min(k, GOMAXPROCS) copy
// states. When ctx fires — cancellation, deadline expiry, or client
// disconnect upstream — the pass loop stops at the next chunk boundary,
// all pool goroutines exit, and the call returns an error wrapping
// ErrCanceled plus the context's own error. With a context that never
// fires, the result is bit-identical to Estimate's for every algorithm and
// worker count. Option errors wrap ErrUnknownAlgorithm or
// ErrInvalidOptions.
//
// With Options.Model = ModelArbitrary the adjacency-list stream is first
// converted to an arbitrary-order edge stream (each edge at its first
// occurrence, see NewArbitraryStream) and the run proceeds as in
// EstimateArbitraryContext: same pool, median and per-copy seed schedule,
// but Result.Driver is empty.
func EstimateContext(ctx context.Context, s *Stream, opts Options) (Result, error) {
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	if opts.Model == ModelArbitrary {
		return EstimateArbitraryContext(ctx, NewArbitraryStream(s), opts)
	}
	k := opts.copies()
	med := newMedian(k)
	st, err := opts.runCopies(ctx, s, 0, k, opts.wrapSingle, med.read)
	if err != nil {
		return Result{}, err
	}
	return opts.adjacencyResult(med, s, st), nil
}

// recycler is a copy whose state a later copy of its type can reuse: the
// core and arbitrary-order estimators (see DESIGN.md §4, "Copy
// lifecycle"). The copy pool recycles a copy once its results are read; a
// canceled run's copies are dropped instead.
type recycler interface{ Recycle() }

// EstimateArbitraryContext runs opts.copies() independent copies of the
// selected arbitrary-order estimator (per-copy seeds on the standard
// schedule) over s under ctx and reports their median. Options.Model may
// be left empty — it is taken as ModelArbitrary — but ModelAdjacencyList is
// rejected. The copies run on the same bounded pool as adjacency-list
// copies, so a run holds at most min(k, GOMAXPROCS) copy states (one
// without Parallel), and results are identical to the sequential run.
// Option errors wrap ErrUnknownAlgorithm or ErrInvalidOptions.
// Result.Driver is always empty, and Result.DriverStats zero: they
// describe adjacency-list runs. Cancellation surfaces as ErrCanceled.
func EstimateArbitraryContext(ctx context.Context, s *ArbitraryStream, opts Options) (Result, error) {
	opts, err := arbitraryOptions(opts)
	if err != nil {
		return Result{}, err
	}
	k := opts.copies()
	med := newMedian(k)
	if err := opts.arbitraryCopies(ctx, s, 0, k, opts.arbitraryBuilder(s), med.read); err != nil {
		return Result{}, err
	}
	return med.result(s.M()), nil
}

// arbitraryOptions checks opts for an explicit arbitrary-order stream: an
// empty Model is taken as ModelArbitrary, ModelAdjacencyList is rejected.
func arbitraryOptions(opts Options) (Options, error) {
	if opts.Model != "" && opts.Model != ModelArbitrary {
		return opts, fmt.Errorf("%w: arbitrary-order streams run Model %q; got %q", ErrInvalidOptions, ModelArbitrary, opts.Model)
	}
	opts.Model = ModelArbitrary
	return opts, opts.Validate()
}

// arbitraryBuilder builds o's arbitrary-order copies for s, whose vertex
// universe it scans once for all of them.
func (o Options) arbitraryBuilder(s *ArbitraryStream) func(seed uint64) (arbitrary.Estimator, error) {
	n := s.N()
	return func(seed uint64) (arbitrary.Estimator, error) { return o.newArbitrary(seed, n) }
}
