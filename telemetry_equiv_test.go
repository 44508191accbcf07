package adjstream

// Equality tests for telemetry: enabling the global registry (as -listen
// and -journal do) must not change a single reported number. Every
// estimator type runs with telemetry off and on, under both the sequential
// and broadcast drivers, and the results are compared bit-for-bit; where an
// estimator exports its space meter, the registry's high-water mark must
// equal the largest meter peak exactly.

import (
	"context"
	"testing"

	"adjstream/internal/gen"
	"adjstream/internal/stream"
	"adjstream/internal/telemetry"
)

// spaceMetricKey maps roster entries to their registry high-water key;
// estimators without an entry export no space metric (and that staying
// true is fine — the estimate-equality half still covers them).
var spaceMetricKey = map[string]string{
	"core.TwoPassTriangle":      "core.twopass_triangle.space_words",
	"core.TwoPassFourCycle":     "core.twopass_fourcycle.space_words",
	"baseline.OnePassTriangle":  "baseline.onepass_triangle.space_words",
	"baseline.WedgeSampler":     "baseline.wedge_sampler.space_words",
	"baseline.OnePassFourCycle": "baseline.onepass_fourcycle.space_words",
	"baseline.ExactStream":      "baseline.exact_stream.space_words",
	"baseline.LocalTriangles":   "baseline.local_triangles.space_words",
}

// result is the observable output of one estimator copy.
type result struct {
	estimate float64
	space    int64
}

// runRoster constructs k copies with deterministic seeds and runs them
// under the sequential or broadcast driver, returning per-copy results.
func runRoster(t *testing.T, mk func(seed uint64) (stream.Estimator, error), s *stream.Stream, k int, broadcast bool) []result {
	t.Helper()
	ests := make([]stream.Estimator, k)
	for i := 0; i < k; i++ {
		e, err := mk(uint64(i)*0x9e37 + 101)
		if err != nil {
			t.Fatal(err)
		}
		ests[i] = e
	}
	if broadcast {
		if _, err := stream.RunBroadcastContext(context.Background(), s, ests); err != nil {
			t.Fatal(err)
		}
	} else {
		for _, e := range ests {
			stream.Run(s, e)
		}
	}
	out := make([]result, k)
	for i, e := range ests {
		out[i] = result{estimate: e.Estimate(), space: e.SpaceWords()}
	}
	return out
}

func TestTelemetryDoesNotPerturbEstimates(t *testing.T) {
	// The registry is process-global; make the test own its state fully.
	telemetry.Disable()
	defer telemetry.Disable()
	g, err := gen.ErdosRenyi(120, 0.1, 11)
	if err != nil {
		t.Fatal(err)
	}
	s := stream.Random(g, 5)
	const k = 4
	for _, tc := range estimatorRoster(s.M()) {
		t.Run(tc.name, func(t *testing.T) {
			telemetry.Disable()
			offSeq := runRoster(t, tc.mk, s, k, false)
			offBr := runRoster(t, tc.mk, s, k, true)

			reg := telemetry.Enable()
			reg.Reset()
			onSeq := runRoster(t, tc.mk, s, k, false)
			onBr := runRoster(t, tc.mk, s, k, true)
			snap := reg.Snapshot()
			telemetry.Disable()

			for i := 0; i < k; i++ {
				if onSeq[i] != offSeq[i] {
					t.Errorf("copy %d sequential: telemetry on %+v != off %+v", i, onSeq[i], offSeq[i])
				}
				if onBr[i] != offBr[i] {
					t.Errorf("copy %d broadcast: telemetry on %+v != off %+v", i, onBr[i], offBr[i])
				}
				if offBr[i] != offSeq[i] {
					t.Errorf("copy %d: broadcast %+v != sequential %+v", i, offBr[i], offSeq[i])
				}
			}

			key, ok := spaceMetricKey[tc.name]
			if !ok {
				return
			}
			got, ok := snap[key]
			if !ok {
				t.Fatalf("registry snapshot missing %q; have %v", key, telemetry.Global().Names())
			}
			var maxSpace int64
			for _, r := range append(onSeq, onBr...) {
				if r.space > maxSpace {
					maxSpace = r.space
				}
			}
			if int64(got) != maxSpace {
				t.Errorf("%s = %v, want max meter peak %d", key, got, maxSpace)
			}
		})
	}
}
