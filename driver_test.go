package adjstream

// Equality tests for the copy pool: every estimator type in internal/core
// and internal/baseline, driven with fixed seeds, must produce estimates and
// space counts identical to sequential stream.Run. This is the contract
// that lets the exp harness and the public API run copies in parallel
// without perturbing a single reported number.

import (
	"context"
	"errors"
	"testing"

	"adjstream/internal/baseline"
	"adjstream/internal/core"
	"adjstream/internal/gen"
	"adjstream/internal/stream"
)

// estimatorRoster enumerates every Estimator constructor in internal/core
// and internal/baseline with a mid-size deterministic configuration.
func estimatorRoster(m int64) []struct {
	name string
	mk   func(seed uint64) (stream.Estimator, error)
} {
	size := int(m / 4)
	return []struct {
		name string
		mk   func(seed uint64) (stream.Estimator, error)
	}{
		{"core.TwoPassTriangle", func(seed uint64) (stream.Estimator, error) {
			return core.NewTwoPassTriangle(core.TriangleConfig{SampleSize: size, PairCap: 4 * size, Seed: seed})
		}},
		{"core.ThreePassTriangle", func(seed uint64) (stream.Estimator, error) {
			return core.NewThreePassTriangle(core.TriangleConfig{SampleSize: size, Seed: seed})
		}},
		{"core.NaiveTwoPass", func(seed uint64) (stream.Estimator, error) {
			return core.NewNaiveTwoPass(core.TriangleConfig{SampleSize: size, Seed: seed})
		}},
		{"core.TwoPassFourCycle", func(seed uint64) (stream.Estimator, error) {
			return core.NewTwoPassFourCycle(core.FourCycleConfig{SampleSize: size, WedgeCap: 4 * size, Seed: seed})
		}},
		{"core.AdaptiveTwoPassTriangle", func(seed uint64) (stream.Estimator, error) {
			return core.NewAdaptiveTwoPassTriangle(core.AdaptiveConfig{InitialSample: size, Seed: seed})
		}},
		{"baseline.OnePassTriangle", func(seed uint64) (stream.Estimator, error) {
			return baseline.NewOnePassTriangle(baseline.Config{SampleSize: size, Seed: seed})
		}},
		{"baseline.WedgeSampler", func(seed uint64) (stream.Estimator, error) {
			return baseline.NewWedgeSampler(baseline.Config{SampleProb: 0.5, WedgeCap: 1 << 16, Seed: seed})
		}},
		{"baseline.OnePassFourCycle", func(seed uint64) (stream.Estimator, error) {
			return baseline.NewOnePassFourCycle(baseline.Config{SampleSize: size, Seed: seed})
		}},
		{"baseline.ExactStream", func(seed uint64) (stream.Estimator, error) {
			return baseline.NewExactStream(3)
		}},
		{"baseline.LocalTriangles", func(seed uint64) (stream.Estimator, error) {
			return baseline.NewLocalTriangles(0.5, seed)
		}},
	}
}

func TestBroadcastMatchesSequentialAllEstimators(t *testing.T) {
	g, err := gen.ErdosRenyi(120, 0.1, 11)
	if err != nil {
		t.Fatal(err)
	}
	s := stream.Random(g, 5)
	const k = 8
	for _, tc := range estimatorRoster(s.M()) {
		t.Run(tc.name, func(t *testing.T) {
			seq := make([]stream.Estimator, k)
			par := make([]stream.Estimator, k)
			for i := 0; i < k; i++ {
				seed := uint64(i)*0x9e37 + 101
				a, err := tc.mk(seed)
				if err != nil {
					t.Fatal(err)
				}
				b, err := tc.mk(seed)
				if err != nil {
					t.Fatal(err)
				}
				stream.Run(s, a)
				seq[i], par[i] = a, b
			}
			st, err := stream.RunBroadcastContext(context.Background(), s, par)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < k; i++ {
				if got, want := par[i].Estimate(), seq[i].Estimate(); got != want {
					t.Errorf("copy %d: broadcast estimate %v != sequential %v", i, got, want)
				}
				if got, want := par[i].SpaceWords(), seq[i].SpaceWords(); got != want {
					t.Errorf("copy %d: broadcast space %d != sequential %d", i, got, want)
				}
			}
			// Every copy reads the stream itself, once per pass.
			if want := int64(k*st.Passes) * int64(s.Len()); st.StreamItemsRead != want || st.Copies != k {
				t.Errorf("StreamItemsRead = %d over %d copies, want %d over %d (each copy's own passes)", st.StreamItemsRead, st.Copies, want, k)
			}
		})
	}
}

// TestEstimateDriversAgree checks the public API: sequential and parallel
// runs of the same Options produce identical results whether the driver is
// named or left empty, the parallel result names the broadcast driver and
// carries the pool's counters, and the retired driver names are rejected.
func TestEstimateDriversAgree(t *testing.T) {
	g, err := gen.ErdosRenyi(100, 0.12, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := stream.Random(g, 9)
	base := Options{
		Algorithm:  AlgoTwoPassTriangle,
		SampleProb: 0.3,
		Copies:     9,
		Seed:       7,
	}
	sequential, err := Estimate(s, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, driver := range []Driver{"", DriverBroadcast} {
		par := base
		par.Parallel = true
		par.Driver = driver
		res, err := Estimate(s, par)
		if err != nil {
			t.Fatal(err)
		}
		if res.Estimate != sequential.Estimate || res.SpaceWords != sequential.SpaceWords {
			t.Fatalf("driver %q: (%v, %d) diverges from sequential (%v, %d)",
				driver, res.Estimate, res.SpaceWords, sequential.Estimate, sequential.SpaceWords)
		}
		if res.Driver != DriverBroadcast || sequential.Driver != "" {
			t.Fatalf("driver %q: Result.Driver = %q, sequential %q", driver, res.Driver, sequential.Driver)
		}
		// 9 two-pass copies, each reading the stream itself: 9·2·2m reads,
		// every one delivered.
		st := res.DriverStats
		if want := int64(9 * 2 * s.Len()); st.StreamItemsRead != want || st.ItemsDelivered != want || st.Copies != 9 {
			t.Fatalf("driver %q: reads %d, delivered %d over %d copies; want %d each over 9",
				driver, st.StreamItemsRead, st.ItemsDelivered, st.Copies, want)
		}
	}
}

// TestEstimateRejectsUnknownDriver covers unknown names and the retired
// "replay" and "push-broadcast" drivers: all are option errors.
func TestEstimateRejectsUnknownDriver(t *testing.T) {
	g, err := gen.ErdosRenyi(20, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, driver := range []Driver{"bogus", "replay", "push-broadcast"} {
		_, err = Estimate(stream.Sorted(g), Options{
			Algorithm:  AlgoTwoPassTriangle,
			SampleProb: 0.5,
			Copies:     3,
			Parallel:   true,
			Driver:     driver,
		})
		if !errors.Is(err, ErrInvalidOptions) {
			t.Fatalf("driver %q: err = %v, want ErrInvalidOptions", driver, err)
		}
	}
}
