package adjstream

// Public-API driver equivalence: for every algorithm, the broadcast driver,
// whether named or selected by an empty Driver, must reproduce the
// sequential median run bit for bit — estimate, space, passes and m. This
// is the whole-roster version of TestEstimateDriversAgree.

import (
	"testing"

	"adjstream/internal/gen"
	"adjstream/internal/stream"
)

func TestAllDriversBitIdentical(t *testing.T) {
	g, err := gen.ErdosRenyi(100, 0.12, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := stream.Random(g, 9)
	for _, algo := range Algorithms() {
		t.Run(string(algo), func(t *testing.T) {
			base := Options{
				Algorithm:  algo,
				SampleSize: 64,
				PairCap:    512,
				Copies:     9,
				Seed:       7,
			}
			want, err := Estimate(s, base)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range []Driver{DriverBroadcast, ""} {
				o := base
				o.Parallel = true
				o.Driver = d
				got, err := Estimate(s, o)
				if err != nil {
					t.Fatalf("%s: %v", d, err)
				}
				if got.Estimate != want.Estimate || got.SpaceWords != want.SpaceWords ||
					got.Passes != want.Passes || got.M != want.M {
					t.Errorf("%s: (est %v, space %d, passes %d, m %d) != sequential (%v, %d, %d, %d)",
						d, got.Estimate, got.SpaceWords, got.Passes, got.M,
						want.Estimate, want.SpaceWords, want.Passes, want.M)
				}
				if got.Driver != DriverBroadcast {
					t.Errorf("%q: result driver = %q, want %q", d, got.Driver, DriverBroadcast)
				}
			}
		})
	}
}
