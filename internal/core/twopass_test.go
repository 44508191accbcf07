package core

import (
	"math"
	"testing"
	"testing/quick"

	"adjstream/internal/gen"
	"adjstream/internal/graph"
	"adjstream/internal/stats"
	"adjstream/internal/stream"
)

// exactCfg samples every edge and keeps every pair, so the estimator must
// return exactly T: every triangle is discovered at all three of its edges
// and counted at exactly one (its ρ edge).
func exactCfg(g *graph.Graph) TriangleConfig {
	cap := int(3*g.Triangles()) + 10
	return TriangleConfig{SampleProb: 1, PairCap: cap, Seed: 1}
}

func runTwoPass(t *testing.T, s *stream.Stream, cfg TriangleConfig) *TwoPassTriangle {
	t.Helper()
	alg, err := NewTwoPassTriangle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream.Run(s, alg)
	return alg
}

func TestTwoPassExactOnFullSample(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"K5":        gen.Complete(5),
		"K8":        gen.Complete(8),
		"book":      gen.Book(30),
		"friends":   gen.Friendship(15),
		"disjoint":  gen.DisjointTriangles(25),
		"trifree":   gen.CompleteBipartite(6, 6),
		"singleTri": gen.DisjointTriangles(1),
	}
	for name, g := range graphs {
		want := float64(g.Triangles())
		for seed := uint64(0); seed < 4; seed++ {
			s := stream.Random(g, seed)
			alg := runTwoPass(t, s, exactCfg(g))
			if got := alg.Estimate(); got != want {
				t.Errorf("%s seed %d: estimate = %v, want exactly %v", name, seed, got, want)
			}
			if alg.M() != g.M() {
				t.Errorf("%s: M = %d, want %d", name, alg.M(), g.M())
			}
			if alg.PairsDiscovered() != 3*g.Triangles() {
				t.Errorf("%s seed %d: pairs = %d, want %d", name, seed, alg.PairsDiscovered(), 3*g.Triangles())
			}
		}
	}
}

func TestTwoPassExactOnFullSampleQuick(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := gen.ErdosRenyi(14, 0.4, seed%512+1)
		if err != nil {
			return false
		}
		s := stream.Random(g, seed)
		alg, err := NewTwoPassTriangle(exactCfg(g))
		if err != nil {
			return false
		}
		stream.Run(s, alg)
		return alg.Estimate() == float64(g.Triangles())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTwoPassZeroOnEmptyAndTriangleFree(t *testing.T) {
	g := gen.CompleteBipartite(5, 7)
	alg := runTwoPass(t, stream.Sorted(g), TriangleConfig{SampleProb: 1, Seed: 3})
	if got := alg.Estimate(); got != 0 {
		t.Fatalf("triangle-free estimate = %v", got)
	}
}

func TestTwoPassUnbiasedUnderSubsampling(t *testing.T) {
	g, err := gen.PlantedTriangles(60, 25, 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	truth := float64(g.Triangles())
	s := stream.Random(g, 1)
	var sum float64
	const trials = 300
	for seed := uint64(0); seed < trials; seed++ {
		alg, err := NewTwoPassTriangle(TriangleConfig{SampleProb: 0.4, PairCap: 100000, Seed: seed*2 + 1})
		if err != nil {
			t.Fatal(err)
		}
		stream.Run(s, alg)
		sum += alg.Estimate()
	}
	mean := sum / trials
	if math.Abs(mean-truth)/truth > 0.1 {
		t.Fatalf("mean estimate %v far from truth %v (bias)", mean, truth)
	}
}

func TestTwoPassUnbiasedWithPairReservoir(t *testing.T) {
	g := gen.DisjointTriangles(80)
	truth := float64(g.Triangles())
	s := stream.Random(g, 2)
	var sum float64
	const trials = 400
	for seed := uint64(0); seed < trials; seed++ {
		// PairCap far below the ~96 pairs expected: exercises dilution.
		alg, err := NewTwoPassTriangle(TriangleConfig{SampleProb: 0.5, PairCap: 20, Seed: seed*3 + 1})
		if err != nil {
			t.Fatal(err)
		}
		stream.Run(s, alg)
		sum += alg.Estimate()
	}
	mean := sum / trials
	if math.Abs(mean-truth)/truth > 0.15 {
		t.Fatalf("mean estimate %v far from truth %v with capped Q", mean, truth)
	}
}

func TestTwoPassBottomKMode(t *testing.T) {
	g, err := gen.PlantedTriangles(50, 20, 0.3, 9)
	if err != nil {
		t.Fatal(err)
	}
	truth := float64(g.Triangles())
	s := stream.Random(g, 4)
	var ests []float64
	for seed := uint64(0); seed < 200; seed++ {
		alg, err := NewTwoPassTriangle(TriangleConfig{SampleSize: int(g.M() / 2), PairCap: 100000, Seed: seed + 1})
		if err != nil {
			t.Fatal(err)
		}
		stream.Run(s, alg)
		est := alg.Estimate()
		if est < 0 || math.IsNaN(est) || math.IsInf(est, 0) {
			t.Fatalf("seed %d: degenerate estimate %v", seed, est)
		}
		ests = append(ests, est)
	}
	mean := stats.Mean(ests)
	if math.Abs(mean-truth)/truth > 0.15 {
		t.Fatalf("bottom-k mean %v far from truth %v", mean, truth)
	}
}

func TestTwoPassBottomKFullCoverageIsExact(t *testing.T) {
	g := gen.Complete(7) // m=21, T=35
	alg, err := NewTwoPassTriangle(TriangleConfig{SampleSize: 100, PairCap: 1000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	stream.Run(stream.Random(g, 3), alg)
	if got := alg.Estimate(); got != float64(g.Triangles()) {
		t.Fatalf("estimate = %v, want %d", got, g.Triangles())
	}
	if alg.SampledEdges() != int(g.M()) {
		t.Fatalf("sampled %d edges, want %d", alg.SampledEdges(), g.M())
	}
}

func TestTwoPassAccuracyOnHeavyEdgeGraph(t *testing.T) {
	// The lightest-edge rule should keep the estimator accurate on book
	// graphs, where naive sampling has huge variance. Use the median of
	// several copies, the paper's amplification.
	g, err := gen.PlantedBooks(4, 100, 40, 0.25, 3)
	if err != nil {
		t.Fatal(err)
	}
	truth := float64(g.Triangles()) // 400
	s := stream.Random(g, 8)
	var errs []float64
	for trial := uint64(0); trial < 20; trial++ {
		copies := make([]stream.Estimator, 9)
		for i := range copies {
			alg, err := NewTwoPassTriangle(TriangleConfig{SampleProb: 0.35, PairCap: 100000, Seed: trial*100 + uint64(i) + 1})
			if err != nil {
				t.Fatal(err)
			}
			copies[i] = alg
		}
		for _, c := range copies {
			stream.Run(s, c)
		}
		est, _ := stream.MedianOf(copies)
		errs = append(errs, stats.RelErr(est, truth))
	}
	if q := stats.Quantile(errs, 0.5); q > 0.25 {
		t.Fatalf("median relative error %v too large on heavy-edge graph", q)
	}
}

func TestTwoPassSpaceScalesWithSample(t *testing.T) {
	g, err := gen.ErdosRenyi(120, 0.25, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := stream.Sorted(g)
	small, err := NewTwoPassTriangle(TriangleConfig{SampleSize: 20, PairCap: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	stream.Run(s, small)
	big, err := NewTwoPassTriangle(TriangleConfig{SampleSize: 500, PairCap: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	stream.Run(s, big)
	if small.SpaceWords() <= 0 || big.SpaceWords() <= small.SpaceWords() {
		t.Fatalf("space: small=%d big=%d", small.SpaceWords(), big.SpaceWords())
	}
}

func TestTriangleConfigValidation(t *testing.T) {
	bad := []TriangleConfig{
		{},                                // neither
		{SampleSize: 10, SampleProb: 0.5}, // both
		{SampleProb: 1.5},                 // p > 1
		{SampleSize: 10, PairCap: -1},     // negative cap
	}
	for i, cfg := range bad {
		if _, err := NewTwoPassTriangle(cfg); err == nil {
			t.Errorf("case %d: expected config error", i)
		}
		if _, err := NewThreePassTriangle(cfg); err == nil {
			t.Errorf("case %d: expected config error (3-pass)", i)
		}
		if _, err := NewNaiveTwoPass(cfg); err == nil {
			t.Errorf("case %d: expected config error (naive)", i)
		}
	}
}

// The documented requirement that both passes present the identical order:
// with different orders, the pass-2 prefix restriction (pos < posFirst)
// misaligns and pairs are double-counted or lost. This negative test pins
// the contract — if it ever starts passing, the implementation's order
// assumptions changed and the docs must change with it.
func TestTwoPassRequiresIdenticalPassOrder(t *testing.T) {
	g := gen.Complete(9) // T = 84, dense enough that misalignment shows
	broken := 0
	for seed := uint64(0); seed < 10; seed++ {
		alg, err := NewTwoPassTriangle(exactCfg(g))
		if err != nil {
			t.Fatal(err)
		}
		err = stream.RunOrders([]*stream.Stream{
			stream.Random(g, seed),
			stream.Random(g, seed+1000),
		}, alg)
		if err != nil {
			t.Fatal(err)
		}
		if alg.PairsDiscovered() != 3*g.Triangles() {
			broken++
		}
	}
	if broken == 0 {
		t.Fatal("mismatched pass orders never perturbed pair discovery; the identical-order requirement may have been silently lifted")
	}
}

// The H proxy must induce a valid assignment: under full sampling, the
// number of (e,τ) pairs with ρ(τ)=e equals T exactly — each triangle is
// claimed by exactly one edge. This is the combinatorial heart of Lemma 3.1.
func TestRhoPartitionsTrianglesQuick(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := gen.ErdosRenyi(12, 0.5, seed%256+1)
		if err != nil {
			return false
		}
		s := stream.Random(g, seed/2)
		alg, err := NewTwoPassTriangle(exactCfg(g))
		if err != nil {
			return false
		}
		stream.Run(s, alg)
		return alg.Estimate() == float64(g.Triangles())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Laptop-scale smoke test: a ~100k-edge stream with 10k planted triangles,
// estimated at a 3% budget in well under a minute. Guards against
// accidental super-linear behavior in the detection engine.
func TestTwoPassLargeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	g, err := gen.PlantedTriangles(10000, 280, 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() < 90000 {
		t.Fatalf("workload too small: m=%d", g.M())
	}
	s := stream.Random(g, 1)
	alg, err := NewTwoPassTriangle(TriangleConfig{SampleSize: int(g.M() / 32), PairCap: int(g.M() / 4), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	stream.Run(s, alg)
	if e := stats.RelErr(alg.Estimate(), 10000); e > 0.25 {
		t.Fatalf("relative error %v at 3%% budget on 100k edges", e)
	}
}
