package core

// Recycled copies: a copy built on spent state must behave exactly as one
// built on zero state. Each check calls an estimator's init directly on a
// state spent by another run (another seed, budget, sampler kind, stream
// order and graph size), then runs both copies over the same stream and
// compares their snapshot bytes and, for the triangle estimators, every
// kept pair with its three H values. Nothing here depends on what the
// sync.Pools hold.

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"adjstream/internal/gen"
	"adjstream/internal/graph"
	"adjstream/internal/stream"
	"adjstream/internal/telemetry"
)

// keptPair is one kept pair with its three H values.
type keptPair struct {
	pair trianglePair
	h    [3]int64
}

func triPairs(st *triState, pairs []trianglePair) []keptPair {
	out := make([]keptPair, len(pairs))
	for j, pr := range pairs {
		out[j] = keptPair{pr, st.loads(j)}
	}
	return out
}

// ageTri and the other age functions move a spent state's list epochs to
// the edge of their wrap. A pooled state can serve runs without end, so a
// counter its init failed to restart would wrap one day; aged, the state
// shows that within the next run's first lists.
func ageTri(st *triState) {
	st.det.recs.epoch = math.MaxUint32
	st.shared.epoch = math.MaxUint32
}

// recycleCase drives one estimator type through its init path.
type recycleCase struct {
	algo  string
	zero  func() snapshotEstimator
	init  func(e snapshotEstimator, cfg any) error
	age   func(e snapshotEstimator)
	pairs func(e snapshotEstimator) []keptPair // nil: the estimator keeps no pairs
	runs  []recycleRun
}

// recycleRun spends a state with spendCfg over spendOn, then inits it with
// cfg and runs it over on. spent, when set, checks that the spending run
// reached the regime it is meant to cover.
type recycleRun struct {
	name     string
	spendCfg any
	spendOn  *stream.Stream
	spent    func(t *testing.T, e snapshotEstimator)
	cfg      any
	on       *stream.Stream
}

func mustER(t *testing.T, n int, p float64, seed uint64) *graph.Graph {
	t.Helper()
	g, err := gen.ErdosRenyi(n, p, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// triangleRuns switches the sampler kind both ways. Every run but the
// first recycled one caps the pairs at 32 or 48, so the two-pass pair
// reservoir evicts both before and after a recycle, and one spending run is
// over a larger graph than the run after it.
func triangleRuns(small, large *graph.Graph) []recycleRun {
	return []recycleRun{
		{
			name:     "bottomk-cap32-random/prob-sorted",
			spendCfg: TriangleConfig{SampleSize: 120, PairCap: 32, Seed: 11},
			spendOn:  stream.Random(large, 5),
			cfg:      TriangleConfig{SampleProb: 0.5, Seed: 5},
			on:       stream.Sorted(small),
		},
		{
			name:     "prob-sorted/bottomk-cap32-random",
			spendCfg: TriangleConfig{SampleProb: 0.7, PairCap: 48, Seed: 12},
			spendOn:  stream.Sorted(small),
			cfg:      TriangleConfig{SampleSize: 80, PairCap: 32, Seed: 6},
			on:       stream.Random(small, 9),
		},
	}
}

func TestRecycledCopiesMatchFresh(t *testing.T) {
	small := mustER(t, 40, 0.3, 7)
	large := mustER(t, 70, 0.3, 8)
	dense, err := gen.PlantedTriangles(1000, 60, 0.3, 3)
	if err != nil {
		t.Fatal(err)
	}
	tri := triangleRuns(small, large)
	evicting := func(t *testing.T, e snapshotEstimator) {
		if tp := e.(*TwoPassTriangle); !tp.pairs.Saturated() {
			t.Fatalf("spending run kept all %d pairs; want pair-reservoir eviction", tp.pairs.Offered())
		}
	}
	twoPassRuns := slices.Clone(tri)
	twoPassRuns[0].spent = evicting
	cases := []recycleCase{
		{
			algo: "twopass-triangle",
			zero: func() snapshotEstimator { return new(TwoPassTriangle) },
			init: func(e snapshotEstimator, cfg any) error { return e.(*TwoPassTriangle).init(cfg.(TriangleConfig)) },
			age:  func(e snapshotEstimator) { ageTri(&e.(*TwoPassTriangle).st) },
			pairs: func(e snapshotEstimator) []keptPair {
				tp := e.(*TwoPassTriangle)
				return triPairs(&tp.st, tp.pairs.Items())
			},
			runs: twoPassRuns,
		},
		{
			algo: "threepass-triangle",
			zero: func() snapshotEstimator { return new(ThreePassTriangle) },
			init: func(e snapshotEstimator, cfg any) error { return e.(*ThreePassTriangle).init(cfg.(TriangleConfig)) },
			age:  func(e snapshotEstimator) { ageTri(&e.(*ThreePassTriangle).st) },
			pairs: func(e snapshotEstimator) []keptPair {
				tp := e.(*ThreePassTriangle)
				return triPairs(&tp.st, tp.pairs)
			},
			runs: tri,
		},
		{
			algo: "naive-twopass",
			zero: func() snapshotEstimator { return new(NaiveTwoPass) },
			init: func(e snapshotEstimator, cfg any) error { return e.(*NaiveTwoPass).init(cfg.(TriangleConfig)) },
			age:  func(e snapshotEstimator) { ageTri(&e.(*NaiveTwoPass).st) },
			runs: tri,
		},
		{
			algo: "adaptive-triangle",
			zero: func() snapshotEstimator { return new(AdaptiveTwoPassTriangle) },
			init: func(e snapshotEstimator, cfg any) error {
				c, err := cfg.(AdaptiveConfig).withDefaults()
				if err != nil {
					return err
				}
				return e.(*AdaptiveTwoPassTriangle).init(c)
			},
			age: func(e snapshotEstimator) { ageTri(&e.(*AdaptiveTwoPassTriangle).inner.st) },
			pairs: func(e snapshotEstimator) []keptPair {
				tp := &e.(*AdaptiveTwoPassTriangle).inner
				return triPairs(&tp.st, tp.pairs.Items())
			},
			runs: []recycleRun{
				{
					name:     "shrink-random/sorted",
					spendCfg: AdaptiveConfig{InitialSample: int(dense.M()), Seed: 7},
					spendOn:  stream.Random(dense, 1),
					spent: func(t *testing.T, e snapshotEstimator) {
						if a := e.(*AdaptiveTwoPassTriangle); a.FinalSample() >= int(dense.M()) {
							t.Fatalf("spending run kept capacity %d; want a shrink", a.FinalSample())
						}
					},
					cfg: AdaptiveConfig{InitialSample: 100, PairCap: 32, Seed: 3},
					on:  stream.Sorted(small),
				},
				{
					name:     "sorted/shrink-random",
					spendCfg: AdaptiveConfig{InitialSample: 100, Seed: 4},
					spendOn:  stream.Sorted(small),
					cfg:      AdaptiveConfig{InitialSample: int(dense.M()), Seed: 8},
					on:       stream.Random(dense, 2),
				},
			},
		},
		{
			algo: "twopass-fourcycle",
			zero: func() snapshotEstimator { return new(TwoPassFourCycle) },
			init: func(e snapshotEstimator, cfg any) error { return e.(*TwoPassFourCycle).init(cfg.(FourCycleConfig)) },
			age:  func(e snapshotEstimator) { e.(*TwoPassFourCycle).wedges.epoch = math.MaxUint32 },
			runs: []recycleRun{
				{
					name:     "bottomk-cap32-random/prob-sorted",
					spendCfg: FourCycleConfig{SampleSize: 150, WedgeCap: 32, Seed: 11},
					spendOn:  stream.Random(large, 5),
					spent: func(t *testing.T, e snapshotEstimator) {
						if f := e.(*TwoPassFourCycle); int64(f.WedgesKept()) >= f.WedgesFormed() {
							t.Fatalf("spending run kept all %d wedges; want wedge-reservoir eviction", f.WedgesFormed())
						}
					},
					cfg: FourCycleConfig{SampleProb: 0.5, Seed: 5},
					on:  stream.Sorted(small),
				},
				{
					name:     "prob-sorted/bottomk-cap32-random",
					spendCfg: FourCycleConfig{SampleProb: 0.6, WedgeCap: 48, Seed: 12},
					spendOn:  stream.Sorted(small),
					cfg:      FourCycleConfig{SampleSize: 100, WedgeCap: 32, Seed: 6},
					on:       stream.Random(small, 9),
				},
			},
		},
	}
	for _, c := range cases {
		for _, r := range c.runs {
			fresh := c.zero()
			if err := c.init(fresh, r.cfg); err != nil {
				t.Fatal(err)
			}
			stream.Run(r.on, fresh)

			spent := c.zero()
			if err := c.init(spent, r.spendCfg); err != nil {
				t.Fatal(err)
			}
			stream.Run(r.spendOn, spent)
			if r.spent != nil {
				r.spent(t, spent)
			}
			spent.Snapshot() // the facade's last read before Recycle
			c.age(spent)
			if err := c.init(spent, r.cfg); err != nil {
				t.Fatal(err)
			}
			stream.Run(r.on, spent)

			if got, want := spent.Snapshot(), fresh.Snapshot(); !bytes.Equal(got, want) {
				t.Errorf("%s %s: recycled snapshot %x, fresh %x", c.algo, r.name, got, want)
			}
			if c.pairs == nil {
				continue
			}
			got, want := c.pairs(spent), c.pairs(fresh)
			if len(want) == 0 {
				t.Fatalf("%s %s: no pairs kept; the check compares nothing", c.algo, r.name)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s %s: recycled copy kept %d pairs and H values that differ from the fresh copy's %d",
					c.algo, r.name, len(got), len(want))
			}
		}
	}
}

// Telemetry can be switched on or off between runs, so init binds the
// handles again: a recycled copy reports to the registry installed when it
// was built, exactly as a fresh copy does, and never to the one its spent
// state reported to.
func TestRecycledCopyRebindsTelemetry(t *testing.T) {
	defer telemetry.Disable()
	s := stream.Random(mustER(t, 40, 0.3, 7), 3)
	cfg := TriangleConfig{SampleSize: 80, PairCap: 32, Seed: 6}
	fcfg := FourCycleConfig{SampleProb: 0.5, Seed: 5}
	run := func(tp *TwoPassTriangle, f *TwoPassFourCycle) {
		if err := tp.init(cfg); err != nil {
			t.Fatal(err)
		}
		if err := f.init(fcfg); err != nil {
			t.Fatal(err)
		}
		stream.Run(s, tp)
		stream.Run(s, f)
	}

	// Spent with telemetry off, recycled with it on. Only the estimators'
	// own metrics (core.*) are compared; the driver's timings vary.
	telemetry.Disable()
	tp, f := new(TwoPassTriangle), new(TwoPassFourCycle)
	run(tp, f)
	want := telemetry.Enable()
	run(new(TwoPassTriangle), new(TwoPassFourCycle))
	wantSnap := want.Snapshot()
	telemetry.Disable()
	got := telemetry.Enable()
	run(tp, f)
	gotSnap := got.Snapshot()
	if len(wantSnap) == 0 || wantSnap["core.twopass_triangle.space_words"] == 0 {
		t.Fatalf("fresh copies reported nothing: %v", wantSnap)
	}
	for name, v := range wantSnap {
		if strings.HasPrefix(name, "core.") && gotSnap[name] != v {
			t.Errorf("%s: recycled copies report %v, fresh copies %v", name, gotSnap[name], v)
		}
	}

	// Spent with telemetry on, recycled with it off: the old registry must
	// not move (the driver's metrics stop with it too). The run is larger,
	// so a copy still bound to it would raise its space high-water marks.
	before := got.Snapshot()
	telemetry.Disable()
	s = stream.Random(mustER(t, 70, 0.3, 8), 3)
	cfg.SampleSize, fcfg.SampleProb = 200, 0.8
	run(tp, f)
	for name, v := range got.Snapshot() {
		if before[name] != v {
			t.Errorf("%s moved from %v to %v after telemetry was switched off", name, before[name], v)
		}
	}
}
