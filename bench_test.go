package adjstream

// Benchmarks regenerating the paper's evaluation, one per Table 1 row and
// Figure 1 panel plus the DESIGN.md ablations. Each benchmark drives the
// relevant algorithm or reduction on a representative workload and reports,
// beyond ns/op, the quantities the paper's claims are about:
//
//	relerr      — relative error of the estimate against ground truth
//	space-words — peak state in machine words
//	comm-words  — communication of the protocol simulation (lower bounds)
//
// The full parameter sweeps behind EXPERIMENTS.md live in cmd/experiments;
// these benchmarks pin one representative point per row so regressions in
// either accuracy or space are caught by `go test -bench=.`.

import (
	"context"
	"math"
	"runtime"
	"testing"

	"adjstream/internal/arbitrary"
	"adjstream/internal/baseline"
	"adjstream/internal/comm"
	"adjstream/internal/core"
	"adjstream/internal/exp"
	"adjstream/internal/gen"
	"adjstream/internal/graph"
	"adjstream/internal/lb"
	"adjstream/internal/stream"
)

// benchEstimator runs mk-built estimators over s for b.N iterations and
// reports mean relative error and space.
func benchEstimator(b *testing.B, s *stream.Stream, truth float64,
	mk func(seed uint64) (stream.Estimator, error)) {
	b.Helper()
	var errSum, spaceSum float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := mk(uint64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		stream.Run(s, e)
		if truth > 0 {
			errSum += math.Abs(e.Estimate()-truth) / truth
		}
		spaceSum += float64(e.SpaceWords())
	}
	b.ReportMetric(errSum/float64(b.N), "relerr")
	b.ReportMetric(spaceSum/float64(b.N), "space-words")
}

func mustPlanted(b *testing.B, T int) (*graph.Graph, *stream.Stream) {
	b.Helper()
	g, err := gen.PlantedTriangles(T, 60, 0.3, 7)
	if err != nil {
		b.Fatal(err)
	}
	return g, stream.Random(g, 3)
}

// BenchmarkTable1Row01WedgeSampler: 1-pass wedge sampling, Õ(P2/T).
func BenchmarkTable1Row01WedgeSampler(b *testing.B) {
	g, s := mustPlanted(b, 400)
	benchEstimator(b, s, float64(g.Triangles()), func(seed uint64) (stream.Estimator, error) {
		return baseline.NewWedgeSampler(baseline.Config{SampleProb: 0.4, Seed: seed})
	})
}

// BenchmarkTable1Row02OnePass: 1-pass edge sampling, Õ(m/√T).
func BenchmarkTable1Row02OnePass(b *testing.B) {
	g, s := mustPlanted(b, 400)
	size := int(8 * float64(g.M()) / math.Sqrt(400))
	benchEstimator(b, s, float64(g.Triangles()), func(seed uint64) (stream.Estimator, error) {
		return baseline.NewOnePassTriangle(baseline.Config{SampleSize: size, Seed: seed})
	})
}

// BenchmarkTable1Row03EdgeSample: naive 2-pass estimator at Õ(m^{3/2}/T).
func BenchmarkTable1Row03EdgeSample(b *testing.B) {
	g, s := mustPlanted(b, 400)
	size := int(2 * math.Pow(float64(g.M()), 1.5) / 400)
	if int64(size) > g.M() {
		size = int(g.M())
	}
	benchEstimator(b, s, float64(g.Triangles()), func(seed uint64) (stream.Estimator, error) {
		return core.NewNaiveTwoPass(core.TriangleConfig{SampleSize: size, Seed: seed})
	})
}

// BenchmarkTable1Row04ThreePass: 3-pass exact-load lightest edge.
func BenchmarkTable1Row04ThreePass(b *testing.B) {
	g, s := mustPlanted(b, 400)
	benchEstimator(b, s, float64(g.Triangles()), func(seed uint64) (stream.Estimator, error) {
		return core.NewThreePassTriangle(core.TriangleConfig{SampleSize: 1500, Seed: seed})
	})
}

// BenchmarkTable1Row05Distinguisher: 2-pass 0-vs-T at Õ(m/T^{2/3}).
func BenchmarkTable1Row05Distinguisher(b *testing.B) {
	g, s := mustPlanted(b, 400)
	size := int(4 * float64(g.M()) / math.Pow(400, 2.0/3.0))
	detects := 0
	var spaceSum float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg, err := core.NewNaiveTwoPass(core.TriangleConfig{SampleSize: size, Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		stream.Run(s, alg)
		if alg.Detected() {
			detects++
		}
		spaceSum += float64(alg.SpaceWords())
	}
	b.ReportMetric(float64(detects)/float64(b.N), "detect-rate")
	b.ReportMetric(spaceSum/float64(b.N), "space-words")
}

// BenchmarkTable1Row06TwoPassTriangle: the Theorem 3.7 algorithm at its
// Õ(m/T^{2/3}) budget.
func BenchmarkTable1Row06TwoPassTriangle(b *testing.B) {
	g, s := mustPlanted(b, 400)
	size := int(8 * float64(g.M()) / math.Pow(400, 2.0/3.0))
	benchEstimator(b, s, float64(g.Triangles()), func(seed uint64) (stream.Estimator, error) {
		return core.NewTwoPassTriangle(core.TriangleConfig{SampleSize: size, PairCap: size, Seed: seed})
	})
}

// benchGadget builds yes/no gadgets each iteration, verifies the dichotomy,
// and reports the exact-protocol communication.
func benchGadget(b *testing.B, mk func(want bool, seed uint64) (*lb.Gadget, error)) {
	b.Helper()
	var commWords float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		yes, err := mk(true, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		no, err := mk(false, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if err := yes.VerifyDichotomy(); err != nil {
			b.Fatal(err)
		}
		if err := no.VerifyDichotomy(); err != nil {
			b.Fatal(err)
		}
		alg, err := baseline.NewExactStream(yes.CycleLen)
		if err != nil {
			b.Fatal(err)
		}
		tr, err := comm.RunProtocol(yes.Segments, alg)
		if err != nil {
			b.Fatal(err)
		}
		commWords += float64(tr.TotalWords)
	}
	b.ReportMetric(commWords/float64(b.N), "comm-words")
}

// BenchmarkTable1Row07LowerBoundPJ: Theorem 5.1 reduction (Figure 1a).
func BenchmarkTable1Row07LowerBoundPJ(b *testing.B) {
	benchGadget(b, func(want bool, seed uint64) (*lb.Gadget, error) {
		return lb.TrianglePJGadget(comm.RandomPJ3(16, want, seed), 4)
	})
}

// BenchmarkTable1Row08LowerBound3Disj: Theorem 5.2 reduction (Figure 1b).
func BenchmarkTable1Row08LowerBound3Disj(b *testing.B) {
	benchGadget(b, func(want bool, seed uint64) (*lb.Gadget, error) {
		return lb.TriangleDisj3Gadget(comm.RandomDisj3(12, want, seed), 3)
	})
}

// BenchmarkTable1Row09TwoPassFourCycle: the Theorem 4.6 algorithm at its
// Õ(m/T^{3/8}) budget.
func BenchmarkTable1Row09TwoPassFourCycle(b *testing.B) {
	g, err := gen.BipartiteButterflies(200, 60, 6, 5)
	if err != nil {
		b.Fatal(err)
	}
	s := stream.Random(g, 2)
	truth := float64(g.FourCycles())
	size := int(10 * float64(g.M()) / math.Pow(truth, 3.0/8.0))
	if int64(size) > g.M() {
		size = int(g.M())
	}
	benchEstimator(b, s, truth, func(seed uint64) (stream.Estimator, error) {
		return core.NewTwoPassFourCycle(core.FourCycleConfig{SampleSize: size, WedgeCap: 4 * size, Seed: seed})
	})
}

// BenchmarkTable1Row10LowerBoundIndex: Theorem 5.3 reduction (Figure 1c).
func BenchmarkTable1Row10LowerBoundIndex(b *testing.B) {
	strLen, err := lb.IndexGadgetStringLen(5)
	if err != nil {
		b.Fatal(err)
	}
	benchGadget(b, func(want bool, seed uint64) (*lb.Gadget, error) {
		return lb.FourCycleIndexGadget(comm.RandomIndex(strLen, want, seed), 5, 3)
	})
}

// BenchmarkTable1Row11LowerBoundDisj: Theorem 5.4 reduction (Figure 1d).
func BenchmarkTable1Row11LowerBoundDisj(b *testing.B) {
	strLen, err := lb.DisjGadgetStringLen(2)
	if err != nil {
		b.Fatal(err)
	}
	benchGadget(b, func(want bool, seed uint64) (*lb.Gadget, error) {
		return lb.FourCycleDisjGadget(comm.RandomDisj(strLen, want, seed), 2, 2)
	})
}

// BenchmarkTable1Row12LowerBoundLong: Theorem 5.5 reduction (Figure 1e).
func BenchmarkTable1Row12LowerBoundLong(b *testing.B) {
	benchGadget(b, func(want bool, seed uint64) (*lb.Gadget, error) {
		return lb.LongCycleGadget(comm.RandomDisj(40, want, seed), 15, 5)
	})
}

// Figure 1 panels: gadget construction plus exact dichotomy verification.

func BenchmarkFigure1aGadget(b *testing.B) {
	benchGadget(b, func(want bool, seed uint64) (*lb.Gadget, error) {
		return lb.TrianglePJGadget(comm.RandomPJ3(10, want, seed), 4)
	})
}

func BenchmarkFigure1bGadget(b *testing.B) {
	benchGadget(b, func(want bool, seed uint64) (*lb.Gadget, error) {
		return lb.TriangleDisj3Gadget(comm.RandomDisj3(10, want, seed), 3)
	})
}

func BenchmarkFigure1cGadget(b *testing.B) {
	strLen, err := lb.IndexGadgetStringLen(3)
	if err != nil {
		b.Fatal(err)
	}
	benchGadget(b, func(want bool, seed uint64) (*lb.Gadget, error) {
		return lb.FourCycleIndexGadget(comm.RandomIndex(strLen, want, seed), 3, 4)
	})
}

func BenchmarkFigure1dGadget(b *testing.B) {
	strLen, err := lb.DisjGadgetStringLen(2)
	if err != nil {
		b.Fatal(err)
	}
	benchGadget(b, func(want bool, seed uint64) (*lb.Gadget, error) {
		return lb.FourCycleDisjGadget(comm.RandomDisj(strLen, want, seed), 2, 2)
	})
}

func BenchmarkFigure1eGadget(b *testing.B) {
	benchGadget(b, func(want bool, seed uint64) (*lb.Gadget, error) {
		return lb.LongCycleGadget(comm.RandomDisj(30, want, seed), 12, 6)
	})
}

// Ablations.

// BenchmarkAblationLightestEdge: naive vs ρ(τ) estimator variance on a
// heavy-edge book workload; reports the MSE ratio (naive/lightest).
func BenchmarkAblationLightestEdge(b *testing.B) {
	g, err := gen.PlantedBooks(3, 100, 30, 0.3, 5)
	if err != nil {
		b.Fatal(err)
	}
	truth := float64(g.Triangles())
	s := stream.Random(g, 4)
	var naiveSq, smartSq float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := core.NewNaiveTwoPass(core.TriangleConfig{SampleProb: 0.15, Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		stream.Run(s, n)
		dn := n.Estimate() - truth
		naiveSq += dn * dn
		l, err := core.NewTwoPassTriangle(core.TriangleConfig{SampleProb: 0.15, PairCap: 1 << 18, Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		stream.Run(s, l)
		dl := l.Estimate() - truth
		smartSq += dl * dl
	}
	if smartSq > 0 {
		b.ReportMetric(naiveSq/smartSq, "mse-ratio")
	}
}

// BenchmarkAblationHvsExact: 2-pass H proxy vs 3-pass exact loads.
func BenchmarkAblationHvsExact(b *testing.B) {
	g, err := gen.PlantedBooks(4, 60, 25, 0.3, 6)
	if err != nil {
		b.Fatal(err)
	}
	truth := float64(g.Triangles())
	s := stream.Random(g, 4)
	var e2, e3 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		two, err := core.NewTwoPassTriangle(core.TriangleConfig{SampleProb: 0.25, PairCap: 1 << 18, Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		stream.Run(s, two)
		e2 += math.Abs(two.Estimate()-truth) / truth
		three, err := core.NewThreePassTriangle(core.TriangleConfig{SampleProb: 0.25, Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		stream.Run(s, three)
		e3 += math.Abs(three.Estimate()-truth) / truth
	}
	b.ReportMetric(e2/float64(b.N), "relerr-2pass")
	b.ReportMetric(e3/float64(b.N), "relerr-3pass")
}

// BenchmarkAblationGoodCycleFraction: Lemma 4.2 classification.
func BenchmarkAblationGoodCycleFraction(b *testing.B) {
	g, err := gen.BipartiteButterflies(100, 40, 6, 8)
	if err != nil {
		b.Fatal(err)
	}
	var frac float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := core.ClassifyFourCycles(g, 40)
		frac = st.GoodFraction()
	}
	b.ReportMetric(frac, "good-fraction")
}

// BenchmarkAblationSamplerKind: bottom-k vs fixed-probability sampling.
func BenchmarkAblationSamplerKind(b *testing.B) {
	g, s := mustPlanted(b, 300)
	size := int(g.M() / 4)
	p := 0.25
	var ek, ep float64
	truth := float64(g.Triangles())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bk, err := core.NewTwoPassTriangle(core.TriangleConfig{SampleSize: size, PairCap: size, Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		stream.Run(s, bk)
		ek += math.Abs(bk.Estimate()-truth) / truth
		fp, err := core.NewTwoPassTriangle(core.TriangleConfig{SampleProb: p, PairCap: size, Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		stream.Run(s, fp)
		ep += math.Abs(fp.Estimate()-truth) / truth
	}
	b.ReportMetric(ek/float64(b.N), "relerr-bottomk")
	b.ReportMetric(ep/float64(b.N), "relerr-fixedp")
}

// BenchmarkAblationPassCrossover: required-sample comparison point (one
// pass vs two passes on the fig-1a extremal family at T=1024).
func BenchmarkAblationPassCrossover(b *testing.B) {
	g, s := mustPlanted(b, 1024)
	truth := float64(g.Triangles())
	b1 := int(8 * float64(g.M()) / math.Sqrt(1024))
	b2 := int(8 * float64(g.M()) / math.Pow(1024, 2.0/3.0))
	var sp1, sp2 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		one, err := baseline.NewOnePassTriangle(baseline.Config{SampleSize: b1, Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		stream.Run(s, one)
		sp1 += float64(one.SpaceWords())
		two, err := core.NewTwoPassTriangle(core.TriangleConfig{SampleSize: b2, PairCap: b2, Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		stream.Run(s, two)
		sp2 += float64(two.SpaceWords())
		_ = truth
	}
	b.ReportMetric(sp1/float64(b.N), "space-1pass")
	b.ReportMetric(sp2/float64(b.N), "space-2pass")
}

// BenchmarkExperimentFigure1 runs the full Figure 1 experiment table.
func BenchmarkExperimentFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Figure1Gadgets(uint64(i) + 1); err != nil {
			b.Fatal(err)
		}
	}
}

// Throughput benchmarks: items/second for each estimator class on a common
// mid-size workload, complementing the per-row space/accuracy benches.

func benchThroughput(b *testing.B, mk func(seed uint64) (stream.Estimator, error)) {
	b.Helper()
	g, err := gen.ErdosRenyi(400, 0.05, 9)
	if err != nil {
		b.Fatal(err)
	}
	s := stream.Random(g, 3)
	b.ResetTimer()
	var items int64
	for i := 0; i < b.N; i++ {
		e, err := mk(uint64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		stream.Run(s, e)
		items += int64(s.Len()) * int64(e.Passes())
	}
	b.ReportMetric(float64(items)/b.Elapsed().Seconds(), "items/sec")
}

func BenchmarkThroughputTwoPassTriangle(b *testing.B) {
	benchThroughput(b, func(seed uint64) (stream.Estimator, error) {
		return core.NewTwoPassTriangle(core.TriangleConfig{SampleProb: 0.25, PairCap: 4096, Seed: seed})
	})
}

func BenchmarkThroughputOnePassTriangle(b *testing.B) {
	benchThroughput(b, func(seed uint64) (stream.Estimator, error) {
		return baseline.NewOnePassTriangle(baseline.Config{SampleProb: 0.25, Seed: seed})
	})
}

func BenchmarkThroughputFourCycle(b *testing.B) {
	benchThroughput(b, func(seed uint64) (stream.Estimator, error) {
		return core.NewTwoPassFourCycle(core.FourCycleConfig{SampleProb: 0.25, WedgeCap: 4096, Seed: seed})
	})
}

func BenchmarkThroughputExact(b *testing.B) {
	benchThroughput(b, func(seed uint64) (stream.Estimator, error) {
		return baseline.NewExactStream(3)
	})
}

func BenchmarkThroughputAdaptive(b *testing.B) {
	benchThroughput(b, func(seed uint64) (stream.Estimator, error) {
		return core.NewAdaptiveTwoPassTriangle(core.AdaptiveConfig{InitialSample: 2048, Seed: seed})
	})
}

// BenchmarkEstimatorCopy runs one copy of every algorithm over the cl2k
// graph of the repository benchmark (perfbench/): Chung–Lu with n = 2000,
// γ = 2.2 and maximum degree 400, in sorted order. The sample shapes are
// the ones perfbench sends: sample_size 512 for the size-budgeted
// algorithms, sample_prob 0.1 for twopass-fourcycle, and for the
// arbitrary-order algorithms arb-nearopt-fourcycle's sample_prob 0.05 (512
// instances for arb-buriol). The arbitrary-order copies run over
// NewArbitraryStream of the same stream, as Model arbitrary requests do.
// Each iteration is a fresh seed. It reports the cost of the estimator
// state per stream item (an item is one list entry, or one edge in the
// arbitrary order, in one pass), the bytes allocated per reported space
// word, and the bytes a copy keeps live per word: the per-estimator view
// the service-level benchmarks blur.
//
// The sub-benchmarks named by algorithm build every copy from zero state.
// Those under recycled/ (the core and the arbitrary-order estimators) hand
// each copy back with Recycle once its words are read, as the facade does,
// so every copy after the first is built on the previous one's spent state.
func BenchmarkEstimatorCopy(b *testing.B) {
	g, err := gen.ChungLu(2000, 2.2, 400, 1)
	if err != nil {
		b.Fatal(err)
	}
	s := SortedStream(g)
	runCopy := func(b *testing.B, opts Options) func(seed uint64) (any, int64, int64) {
		return func(seed uint64) (any, int64, int64) {
			opts.Seed = seed
			e, err := NewEstimator(opts)
			if err != nil {
				b.Fatal(err)
			}
			stream.Run(s, e)
			return e, int64(s.Len()) * int64(e.Passes()), e.SpaceWords()
		}
	}
	var recyclable []Options
	for _, algo := range Algorithms() {
		opts := Options{Algorithm: algo, SampleSize: 512}
		switch algo {
		case AlgoTwoPassFourCycle:
			opts = Options{Algorithm: algo, SampleProb: 0.1}
		case AlgoExact:
			opts = Options{Algorithm: algo}
		}
		if e, err := NewEstimator(opts); err == nil {
			if _, ok := e.(recycler); ok {
				recyclable = append(recyclable, opts)
			}
		}
		b.Run(string(algo), func(b *testing.B) {
			benchCopies(b, runCopy(b, opts), nil)
		})
	}
	as := NewArbitraryStream(s)
	arbCopy := func(b *testing.B, opts Options) func(seed uint64) (any, int64, int64) {
		return func(seed uint64) (any, int64, int64) {
			e, err := opts.newArbitrary(seed, as.N())
			if err != nil {
				b.Fatal(err)
			}
			arbitrary.Run(as, e)
			return e, as.M() * int64(e.Passes()), e.SpaceWords()
		}
	}
	var arbitraryOpts []Options
	for _, algo := range AlgorithmsForModel(ModelArbitrary) {
		opts := Options{Model: ModelArbitrary, Algorithm: algo, SampleProb: 0.05}
		if algo == AlgoArbBuriol {
			opts = Options{Model: ModelArbitrary, Algorithm: algo, SampleSize: 512}
		}
		arbitraryOpts = append(arbitraryOpts, opts)
		b.Run(string(algo), func(b *testing.B) {
			benchCopies(b, arbCopy(b, opts), nil)
		})
	}
	b.Run("recycled", func(b *testing.B) {
		recycle := func(e any) { e.(recycler).Recycle() }
		for _, opts := range recyclable {
			b.Run(string(opts.Algorithm), func(b *testing.B) {
				benchCopies(b, runCopy(b, opts), recycle)
			})
		}
		for _, opts := range arbitraryOpts {
			b.Run(string(opts.Algorithm), func(b *testing.B) {
				benchCopies(b, arbCopy(b, opts), recycle)
			})
		}
	})
}

// BenchmarkEstimateCopies runs 9 copies through EstimateContext with
// Parallel set on BenchmarkEstimatorCopy's cl2k stream, at the shapes of
// perfbench's cold-estimate workload: twopass-triangle at sample_size 512,
// twopass-fourcycle at sample_prob 0.1 and arb-nearopt-fourcycle at
// sample_prob 0.05. Each iteration is a fresh seed. It times the copy pool
// on real estimators, the layer under a cold request, where
// BenchmarkBroadcastK32 (internal/stream) times it on a trivial stand-in.
func BenchmarkEstimateCopies(b *testing.B) {
	g, err := gen.ChungLu(2000, 2.2, 400, 1)
	if err != nil {
		b.Fatal(err)
	}
	s := SortedStream(g)
	for _, opts := range []Options{
		{Algorithm: AlgoTwoPassTriangle, SampleSize: 512},
		{Algorithm: AlgoTwoPassFourCycle, SampleProb: 0.1},
		{Model: ModelArbitrary, Algorithm: AlgoArbNearOptFourCycle, SampleProb: 0.05},
	} {
		opts.Copies, opts.Parallel = 9, true
		b.Run(string(opts.Algorithm), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opts.Seed = uint64(i) + 1
				if _, err := EstimateContext(context.Background(), s, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchCopies runs one copy per iteration, seeded 1, 2, …, handing each to
// done (when not nil) once its items and words are read, and reports
// ns/item, allocs/item and B/word over the items and space words the
// copies report. It then runs one more copy and reports liveB/word: the
// heap bytes that copy holds, measured after a GC while it is reachable,
// against the heap once it is handed to done and gone, per word it
// reports. Two GCs empty the core estimators' pools (sync.Pools) before
// the timed loop, so its first copy starts from zero state, and around the
// live-bytes reading, so that only the measured copy's state differs.
func benchCopies(b *testing.B, run func(seed uint64) (copy any, items, words int64), done func(copy any)) {
	var items, words float64
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, n, w := run(uint64(i) + 1)
		items += float64(n)
		words += float64(w)
		if done != nil {
			done(e)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/items, "ns/item")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/items, "allocs/item")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/words, "B/word")

	e, _, w := run(uint64(b.N) + 1)
	runtime.GC()
	runtime.GC()
	var with, without runtime.MemStats
	runtime.ReadMemStats(&with)
	if done != nil {
		done(e)
	}
	runtime.KeepAlive(e)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&without)
	b.ReportMetric(float64(int64(with.HeapAlloc)-int64(without.HeapAlloc))/float64(w), "liveB/word")
}

// BenchmarkGroundTruthCensus measures the full exact ground-truth battery
// the experiment harness pays per workload grid point: graph generation,
// CSR index build, and every memoized kernel cold (triangle and 4-cycle
// counts, edge loads, wedge count, degree moments, motif census). Each
// iteration builds a fresh graph so memoization never short-circuits.
func BenchmarkGroundTruthCensus(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := gen.ErdosRenyi(600, 0.05, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		g.Triangles()
		g.FourCycles()
		g.WedgeCount()
		g.MaxTriangleLoad()
		g.DegreeMoments()
		if mc := g.Motifs(); mc.Cycle4 != g.FourCycles() {
			b.Fatal("census mismatch")
		}
	}
}
