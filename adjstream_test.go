package adjstream

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"adjstream/internal/gen"
	"adjstream/internal/stream"
)

func TestEstimateExactAlgorithms(t *testing.T) {
	g := gen.Complete(8) // T = 56, C4 = 105
	s := SortedStream(g)
	cases := []struct {
		opts Options
		want float64
	}{
		{Options{Algorithm: AlgoExact}, float64(g.Triangles())},
		{Options{Algorithm: AlgoExact, CycleLen: 4}, float64(g.FourCycles())},
		{Options{Algorithm: AlgoTwoPassTriangle, SampleProb: 1, PairCap: 1000, Seed: 1}, float64(g.Triangles())},
		{Options{Algorithm: AlgoThreePassTriangle, SampleProb: 1, Seed: 1}, float64(g.Triangles())},
		{Options{Algorithm: AlgoNaiveTwoPass, SampleProb: 1, Seed: 1}, float64(g.Triangles())},
		{Options{Algorithm: AlgoOnePassTriangle, SampleProb: 1, Seed: 1}, float64(g.Triangles())},
		{Options{Algorithm: AlgoTwoPassFourCycle, SampleProb: 1, Seed: 1}, float64(g.FourCycles())},
	}
	for _, c := range cases {
		res, err := Estimate(s, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.opts.Algorithm, err)
		}
		if res.Estimate != c.want {
			t.Errorf("%s: estimate = %v, want %v", c.opts.Algorithm, res.Estimate, c.want)
		}
		if res.M != g.M() {
			t.Errorf("%s: M = %d, want %d", c.opts.Algorithm, res.M, g.M())
		}
		if res.SpaceWords <= 0 {
			t.Errorf("%s: space = %d", c.opts.Algorithm, res.SpaceWords)
		}
	}
}

func TestEstimatePassCounts(t *testing.T) {
	g := gen.Complete(5)
	s := SortedStream(g)
	wants := map[Algorithm]int{
		AlgoTwoPassTriangle:   2,
		AlgoThreePassTriangle: 3,
		AlgoNaiveTwoPass:      2,
		AlgoOnePassTriangle:   1,
		AlgoWedgeSampler:      1,
		AlgoTwoPassFourCycle:  2,
		AlgoExact:             1,
	}
	for algo, want := range wants {
		res, err := Estimate(s, Options{Algorithm: algo, SampleProb: 1, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if res.Passes != want {
			t.Errorf("%s: passes = %d, want %d", algo, res.Passes, want)
		}
	}
}

func TestEstimateMedianCopies(t *testing.T) {
	g, err := gen.PlantedTriangles(40, 15, 0.3, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := RandomStream(g, 1)
	res, err := Estimate(s, Options{Algorithm: AlgoTwoPassTriangle, SampleProb: 0.5, PairCap: 10000, Copies: 7, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Copies != 7 {
		t.Fatalf("copies = %d", res.Copies)
	}
	truth := float64(g.Triangles())
	if math.Abs(res.Estimate-truth)/truth > 0.5 {
		t.Fatalf("median estimate %v far from %v", res.Estimate, truth)
	}
}

func TestEstimateParallelMatchesSequential(t *testing.T) {
	g, err := gen.PlantedTriangles(40, 15, 0.3, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := RandomStream(g, 1)
	opts := Options{Algorithm: AlgoTwoPassTriangle, SampleProb: 0.5, PairCap: 10000, Copies: 7, Seed: 5}
	seq, err := Estimate(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallel = true
	par, err := Estimate(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Estimate != par.Estimate || seq.SpaceWords != par.SpaceWords {
		t.Fatalf("parallel (%v, %d) differs from sequential (%v, %d)",
			par.Estimate, par.SpaceWords, seq.Estimate, seq.SpaceWords)
	}
}

func TestEstimateConfidenceDerivesCopies(t *testing.T) {
	g := gen.Complete(5)
	res, err := Estimate(SortedStream(g), Options{Algorithm: AlgoExact, Confidence: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if res.Copies < 3 || res.Copies%2 == 0 {
		t.Fatalf("copies = %d, want odd > 1", res.Copies)
	}
}

func TestEstimateOptionErrors(t *testing.T) {
	g := gen.Complete(4)
	s := SortedStream(g)
	bad := []Options{
		{},                                  // no algorithm
		{Algorithm: "bogus", SampleProb: 1}, // unknown algorithm
		{Algorithm: AlgoTwoPassTriangle},    // no sampling parameter
		{Algorithm: AlgoTwoPassTriangle, SampleProb: 1, Copies: 3, Confidence: 0.9},
		{Algorithm: AlgoTwoPassTriangle, SampleProb: 1, Copies: -1},
		{Algorithm: AlgoTwoPassTriangle, SampleProb: 1, Confidence: 1.5},
	}
	for i, o := range bad {
		if _, err := Estimate(s, o); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestStreamIOHelpers(t *testing.T) {
	g := gen.Complete(5)
	var buf bytes.Buffer
	if err := WriteStream(&buf, SortedStream(g)); err != nil {
		t.Fatal(err)
	}
	s, err := ReadStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s.M() != g.M() {
		t.Fatalf("M = %d", s.M())
	}
	buf.Reset()
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.M() != g.M() {
		t.Fatalf("edge list M = %d", g2.M())
	}
}

func TestFileHelpers(t *testing.T) {
	dir := t.TempDir()
	g := gen.Complete(6)
	edgePath := filepath.Join(dir, "g.edges")
	f, err := os.Create(edgePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteEdgeList(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	g2, err := ReadEdgeListFile(edgePath)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Triangles() != g.Triangles() {
		t.Fatal("edge list file round trip failed")
	}

	streamPath := filepath.Join(dir, "g.stream")
	f, err = os.Create(streamPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteStream(f, SortedStream(g)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s, err := ReadStreamFile(streamPath)
	if err != nil {
		t.Fatal(err)
	}
	if s.M() != g.M() {
		t.Fatal("stream file round trip failed")
	}

	if _, err := ReadEdgeListFile(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("expected error for missing file")
	}
	if _, err := ReadStreamFile(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestBuilderReexport(t *testing.T) {
	b := NewBuilder()
	if err := b.Add(1, 2); err != nil {
		t.Fatal(err)
	}
	g := b.Graph()
	if g.M() != 1 {
		t.Fatal("builder re-export broken")
	}
	g2, err := FromEdges([]Edge{{U: 1, V: 2}, {U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if g2.M() != 2 {
		t.Fatal("FromEdges re-export broken")
	}
}

// TestBuilderIDsOutsideStreamRangeDoNotAlias: a path 1–2–3 plus an edge
// from 2³²+1 has no triangle. Were the Builder to take 2³²+1, the sorted
// stream's uint32 columns would read it as 1, list owner 1 twice and let
// exact count one triangle; the Builder refuses it instead.
func TestBuilderIDsOutsideStreamRangeDoNotAlias(t *testing.T) {
	b := NewBuilder()
	b.AddIfAbsent(1, 2)
	b.AddIfAbsent(2, 3)
	if b.AddIfAbsent(1<<32+1, 3) {
		t.Error("AddIfAbsent accepted id 2³²+1")
	}
	res, err := Estimate(SortedStream(b.Graph()), Options{Algorithm: AlgoExact})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != 0 {
		t.Errorf("exact counts %v triangles on a path, want 0", res.Estimate)
	}
}

func TestAlgorithmsListBuildable(t *testing.T) {
	g := gen.Complete(5)
	s := SortedStream(g)
	for _, a := range Algorithms() {
		opts := Options{Algorithm: a, SampleProb: 1, Seed: 1}
		if a == AlgoAdaptiveTriangle {
			// The adaptive estimator budgets by sample size, not rate.
			opts = Options{Algorithm: a, SampleSize: 100, Seed: 1}
		}
		res, err := Estimate(s, opts)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if res.Passes < 1 {
			t.Fatalf("%s: passes = %d", a, res.Passes)
		}
	}
}

func TestDistinguish(t *testing.T) {
	free := gen.CompleteBipartite(8, 8) // triangle-free, C4-rich
	tri := gen.DisjointTriangles(40)
	c5, err := FromEdges([]Edge{
		{U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 1},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Triangles: full budget must separate the instances.
	found, res, err := DistinguishContext(context.Background(), SortedStream(tri), 3, Options{SampleSize: int(tri.M()), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !found || res.Passes != 2 {
		t.Fatalf("found=%v passes=%d", found, res.Passes)
	}
	found, _, err = DistinguishContext(context.Background(), SortedStream(free), 3, Options{SampleSize: int(free.M()), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("false positive on triangle-free graph")
	}

	// 4-cycles.
	found, _, err = DistinguishContext(context.Background(), SortedStream(free), 4, Options{SampleSize: int(free.M()), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("missed 4-cycles in K88")
	}

	// ℓ = 5: exact path, O(m) space.
	found, res, err = DistinguishContext(context.Background(), SortedStream(c5), 5, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !found || res.SpaceWords != 2*c5.M() {
		t.Fatalf("found=%v space=%d", found, res.SpaceWords)
	}

	if _, _, err := DistinguishContext(context.Background(), SortedStream(free), 2, Options{Seed: 1}); err == nil {
		t.Fatal("expected error for cycleLen < 3")
	}
}

func TestAdaptiveViaFacade(t *testing.T) {
	g := gen.Complete(8)
	res, err := Estimate(SortedStream(g), Options{Algorithm: AlgoAdaptiveTriangle, SampleSize: 500, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != float64(g.Triangles()) {
		t.Fatalf("estimate = %v, want %d (full coverage)", res.Estimate, g.Triangles())
	}
}

func TestLocalEstimateFacade(t *testing.T) {
	g := gen.Friendship(6)
	counts, res, err := LocalEstimateContext(context.Background(), SortedStream(g), 1, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(counts[0]-6) > 1e-9 {
		t.Fatalf("hub local count = %v, want 6", counts[0])
	}
	if math.Abs(res.Estimate-6) > 1e-9 {
		t.Fatalf("global = %v", res.Estimate)
	}
	if _, _, err := LocalEstimateContext(context.Background(), SortedStream(g), 0, Options{Seed: 1}); err == nil {
		t.Fatal("expected error for p=0")
	}
}

// NewEstimator builds exactly one copy: asking it for a median of copies is
// an option error that points at EstimateContext, and its single copy
// reproduces a one-copy EstimateContext run.
func TestNewEstimatorBuildsOneCopy(t *testing.T) {
	for _, opts := range []Options{
		{Algorithm: AlgoTwoPassTriangle, SampleProb: 0.5, Copies: 3, Seed: 1},
		{Algorithm: AlgoTwoPassTriangle, SampleProb: 0.5, Confidence: 0.9, Seed: 1},
	} {
		_, err := NewEstimator(opts)
		if !errors.Is(err, ErrInvalidOptions) || !strings.Contains(err.Error(), "EstimateContext") {
			t.Errorf("NewEstimator(%+v) = %v, want ErrInvalidOptions naming EstimateContext", opts, err)
		}
	}
	s := SortedStream(gen.Complete(9))
	opts := Options{Algorithm: AlgoTwoPassTriangle, SampleProb: 0.5, Copies: 1, Seed: 1}
	e, err := NewEstimator(opts)
	if err != nil {
		t.Fatal(err)
	}
	est, sp := stream.Estimate(s, e)
	res, err := EstimateContext(context.Background(), s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if est != res.Estimate || sp != res.SpaceWords {
		t.Errorf("NewEstimator copy (%v, %d) != EstimateContext (%v, %d)", est, sp, res.Estimate, res.SpaceWords)
	}
}

// Construction cost is independent of the requested budgets: estimator
// state grows with what a run actually stores, so an absurd SampleSize or
// PairCap (nothing bounds them in Validate) must not allocate at
// construction. Each build is measured three times and the smallest
// TotalAlloc delta is kept, so allocations by other goroutines of the
// test binary cannot fail it.
func TestNewEstimatorConstructionCostIgnoresBudgets(t *testing.T) {
	const budget = 64 << 10
	for _, a := range Algorithms() {
		opts := Options{Algorithm: a, SampleSize: 1 << 40, PairCap: 1 << 40, Seed: 1}
		least := uint64(math.MaxUint64)
		for try := 0; try < 3; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			e, err := NewEstimator(opts)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("%s: %v", a, err)
			}
			runtime.KeepAlive(e)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > budget {
			t.Errorf("%s: construction allocated %d bytes with SampleSize = PairCap = 1<<40, budget %d", a, least, budget)
		}
	}
}
