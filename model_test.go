package adjstream

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"adjstream/internal/gen"
)

func TestModelValidation(t *testing.T) {
	g := gen.Complete(6)
	s := SortedStream(g)
	cases := []struct {
		name string
		opts Options
	}{
		{"unknown model", Options{Algorithm: AlgoExact, Model: "edge-list"}},
		{"arb algorithm under AL model", Options{Algorithm: AlgoArbTwoPassWedge, SampleProb: 0.5}},
		{"arb algorithm under explicit AL model", Options{Algorithm: AlgoArbTwoPassWedge, Model: ModelAdjacencyList, SampleProb: 0.5}},
		{"AL algorithm under arbitrary model", Options{Algorithm: AlgoTwoPassTriangle, Model: ModelArbitrary, SampleProb: 0.5}},
		{"driver under arbitrary model", Options{Algorithm: AlgoArbTwoPassWedge, Model: ModelArbitrary, SampleProb: 0.5, Driver: DriverBroadcast}},
		{"buriol with SampleProb", Options{Algorithm: AlgoArbBuriol, Model: ModelArbitrary, SampleProb: 0.5}},
		{"wedge with SampleSize", Options{Algorithm: AlgoArbTwoPassWedge, Model: ModelArbitrary, SampleSize: 10}},
		{"bad rate", Options{Algorithm: AlgoArbThreePassFourCycle, Model: ModelArbitrary, SampleProb: 0}},
	}
	for _, c := range cases {
		if _, err := Estimate(s, c.opts); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("%s: err = %v, want ErrInvalidOptions", c.name, err)
		}
	}
	if _, err := Estimate(s, Options{Algorithm: Algorithm("arb-nope"), Model: ModelArbitrary}); !errors.Is(err, ErrUnknownAlgorithm) {
		t.Errorf("unknown arb algorithm: err = %v, want ErrUnknownAlgorithm", err)
	}
	if _, err := NewEstimator(Options{Algorithm: AlgoArbTwoPassWedge, Model: ModelArbitrary, SampleProb: 0.5}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("NewEstimator on arbitrary model: err = %v, want ErrInvalidOptions", err)
	}
}

func TestAlgorithmsForModel(t *testing.T) {
	al := AlgorithmsForModel(ModelAdjacencyList)
	if len(al) != len(Algorithms()) {
		t.Fatalf("AL roster %d != Algorithms() %d", len(al), len(Algorithms()))
	}
	arb := AlgorithmsForModel(ModelArbitrary)
	if len(arb) != 4 {
		t.Fatalf("arbitrary roster = %v", arb)
	}
	for _, a := range arb {
		if !strings.HasPrefix(string(a), "arb-") {
			t.Errorf("arbitrary algorithm %q lacks arb- prefix", a)
		}
		if _, err := Estimate(SortedStream(gen.Complete(5)), Options{Algorithm: a, Model: ModelAdjacencyList, SampleProb: 0.5}); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("%q accepted under AL model", a)
		}
	}
	if AlgorithmsForModel("nope") != nil {
		t.Error("unknown model should list nil")
	}
	if len(Models()) != 2 {
		t.Errorf("Models() = %v", Models())
	}
}

// At p = 1 the arbitrary-order estimators collapse to the exact counts —
// through the facade, from an adjacency-list stream, via the
// first-occurrence model conversion.
func TestEstimateArbitraryExact(t *testing.T) {
	g := gen.Complete(8) // T = 56, C4 = 105
	s := SortedStream(g)
	cases := []struct {
		opts Options
		want float64
	}{
		{Options{Algorithm: AlgoArbTwoPassWedge, Model: ModelArbitrary, SampleProb: 1, Seed: 1}, float64(g.Triangles())},
		{Options{Algorithm: AlgoArbThreePassFourCycle, Model: ModelArbitrary, SampleProb: 1, Seed: 1}, float64(g.FourCycles())},
		{Options{Algorithm: AlgoArbNearOptFourCycle, Model: ModelArbitrary, SampleProb: 1, Seed: 1}, float64(g.FourCycles())},
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
		if res.Driver != "" {
			t.Errorf("%s: Driver = %q, want empty", c.opts.Algorithm, res.Driver)
		}
		if res.SpaceWords <= 0 {
			t.Errorf("%s: space = %d", c.opts.Algorithm, res.SpaceWords)
		}
	}
}

// The derived arbitrary stream is the first occurrence of each edge: for a
// sorted stream that is ascending (u,v) order, and M/N match the graph.
func TestNewArbitraryStreamFirstOccurrence(t *testing.T) {
	g := gen.Complete(5)
	as := NewArbitraryStream(SortedStream(g))
	if as.M() != g.M() {
		t.Fatalf("M = %d, want %d", as.M(), g.M())
	}
	if as.N() != int64(g.N()) {
		t.Fatalf("N = %d, want %d", as.N(), g.N())
	}
	edges := as.Edges()
	for i := 1; i < len(edges); i++ {
		a, b := edges[i-1], edges[i]
		if a.U > b.U || (a.U == b.U && a.V >= b.V) {
			t.Fatalf("sorted-stream derivation out of order at %d: %v then %v", i-1, a, b)
		}
	}
}

// NewArbitraryStream decides first occurrence from which lists have
// started; on shuffled list orders it must emit exactly what a scan with a
// set of the edges seen so far emits, edge for edge.
func TestNewArbitraryStreamMatchesSeenSetScan(t *testing.T) {
	g, err := gen.ChungLu(300, 2.2, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 4; seed++ {
		s := RandomStream(g, seed)
		seen := make(map[Edge]bool)
		var want []Edge
		for _, it := range s.Items() {
			if e := (Edge{U: it.Owner, V: it.Nbr}).Norm(); !seen[e] {
				seen[e] = true
				want = append(want, e)
			}
		}
		got := NewArbitraryStream(s).Edges()
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: first-occurrence edges differ from the seen-set scan (%d vs %d edges)", seed, len(got), len(want))
		}
	}
}

// Same options, same stream: byte-identical results across calls, and
// Parallel must change nothing but wall time — including under multi-copy
// median amplification.
func TestEstimateArbitraryDeterministicAndParallel(t *testing.T) {
	g, err := gen.ErdosRenyi(50, 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	s := SortedStream(g)
	for _, algo := range []Algorithm{AlgoArbTwoPassWedge, AlgoArbThreePassFourCycle, AlgoArbNearOptFourCycle} {
		opts := Options{Algorithm: algo, Model: ModelArbitrary, SampleProb: 0.4, Copies: 5, Seed: 3}
		seq1, err := Estimate(s, opts)
		if err != nil {
			t.Fatal(err)
		}
		seq2, err := Estimate(s, opts)
		if err != nil {
			t.Fatal(err)
		}
		par := opts
		par.Parallel = true
		pres, err := Estimate(s, par)
		if err != nil {
			t.Fatal(err)
		}
		if seq1 != seq2 {
			t.Errorf("%s: non-deterministic: %+v vs %+v", algo, seq1, seq2)
		}
		if pres != seq1 {
			t.Errorf("%s: parallel %+v != sequential %+v", algo, pres, seq1)
		}
		if seq1.Copies != 5 || seq1.Passes == 0 {
			t.Errorf("%s: result metadata %+v", algo, seq1)
		}
	}
}

// Facade equivalence: Estimate over the AL stream with Model arbitrary must
// equal EstimateArbitraryContext over the explicitly derived stream, and the
// single-copy run must use Seed itself (the multi-copy schedule only kicks
// in for copies > 1).
func TestEstimateArbitraryMatchesDirect(t *testing.T) {
	g, err := gen.ErdosRenyi(40, 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := SortedStream(g)
	opts := Options{Algorithm: AlgoArbThreePassFourCycle, Model: ModelArbitrary, SampleProb: 0.5, Seed: 9}
	viaModel, err := Estimate(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := EstimateArbitraryContext(context.Background(), NewArbitraryStream(s), opts)
	if err != nil {
		t.Fatal(err)
	}
	if viaModel != direct {
		t.Fatalf("model route %+v != direct route %+v", viaModel, direct)
	}
	// Model may be left empty on the direct route…
	noModel := opts
	noModel.Model = ""
	res, err := EstimateArbitraryContext(context.Background(), NewArbitraryStream(s), noModel)
	if err != nil {
		t.Fatal(err)
	}
	if res != direct {
		t.Fatalf("defaulted model %+v != explicit %+v", res, direct)
	}
	// …but the adjacency-list model is rejected there.
	alModel := opts
	alModel.Model = ModelAdjacencyList
	if _, err := EstimateArbitraryContext(context.Background(), NewArbitraryStream(s), alModel); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("AL model on EstimateArbitraryContext: err = %v", err)
	}
}

func TestEstimateArbitraryBuriol(t *testing.T) {
	g := gen.Complete(10)
	s := SortedStream(g)
	res, err := Estimate(s, Options{
		Algorithm: AlgoArbBuriol, Model: ModelArbitrary,
		SampleSize: 400, Copies: 9, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	truth := float64(g.Triangles())
	if res.Estimate < truth/3 || res.Estimate > truth*3 {
		t.Fatalf("estimate %v far from %v", res.Estimate, truth)
	}
	if res.Passes != 1 {
		t.Fatalf("passes = %d", res.Passes)
	}
}

func TestEstimateArbitraryCancel(t *testing.T) {
	g := gen.Complete(40)
	s := SortedStream(g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := Options{Algorithm: AlgoArbTwoPassWedge, Model: ModelArbitrary, SampleProb: 0.5, Seed: 1}
	if _, err := EstimateContext(ctx, s, opts); !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	par := opts
	par.Copies, par.Parallel = 5, true
	if _, err := EstimateContext(ctx, s, par); !errors.Is(err, ErrCanceled) {
		t.Fatalf("parallel err = %v, want ErrCanceled", err)
	}
}

// Distinguish and LocalEstimate are adjacency-list facilities: an arbitrary
// Model smuggled through their Options must be rejected, not ignored.
func TestModelRejectedOutsideEstimate(t *testing.T) {
	g := gen.Complete(5)
	s := SortedStream(g)
	if _, _, err := DistinguishContext(context.Background(), s, 3, Options{Model: ModelArbitrary, Seed: 1}); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("Distinguish: err = %v, want ErrInvalidOptions", err)
	}
	if _, _, err := LocalEstimateContext(context.Background(), s, 1, Options{Model: ModelArbitrary, Seed: 1}); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("LocalEstimate: err = %v, want ErrInvalidOptions", err)
	}
}

func TestReadArbitraryStreamFacade(t *testing.T) {
	s, err := ReadArbitraryStream(strings.NewReader("0 1\n1 2\n2 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := EstimateArbitraryContext(context.Background(), s, Options{Algorithm: AlgoArbTwoPassWedge, SampleProb: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != 1 {
		t.Fatalf("triangle estimate %v, want 1", res.Estimate)
	}
	if _, err := ReadArbitraryStream(strings.NewReader("0 1\n1 0\n")); err == nil {
		t.Fatal("duplicate edge should fail")
	}
	if _, err := ArbitraryStreamFromEdges([]Edge{{U: 1, V: 1}}); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("self-loop: err = %v", err)
	}
	// An id above 2³²−1 would alias a smaller one in the estimators' packed
	// edge keys, so both entry points reject it.
	if _, err := ArbitraryStreamFromEdges([]Edge{{U: 0, V: 5}, {U: 0, V: 1<<32 + 5}}); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("id 2^32+5: err = %v", err)
	}
	if _, err := ReadArbitraryStream(strings.NewReader("0 5\n0 4294967301\n")); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("id 2^32+5 on line 2: err = %v", err)
	}
}
