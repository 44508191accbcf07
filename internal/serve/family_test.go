package serve

// Tests for the batch family optimization: items identical up to Copies run
// once at the largest copy count, and each member's answer is merged from
// its prefix of the shared snapshots — bit-identical to a standalone run,
// reported as Cache "shared".

import (
	"net/http"
	"testing"
)

func TestBatchFamilySharesOneRun(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	family := func(copies int) EstimateRequest {
		return EstimateRequest{
			Graph:      "k6",
			Algorithm:  "twopass-triangle",
			SampleProb: 0.6,
			Copies:     copies,
			Parallel:   true,
			Seed:       seedPtr(9),
		}
	}
	other := family(8)
	other.Algorithm = "naive-twopass"
	batch := BatchRequest{Requests: []EstimateRequest{family(4), family(8), other}}
	var resp BatchResponse
	if code := post(t, ts, "/v1/estimate/batch", batch, &resp); code != http.StatusOK {
		t.Fatalf("batch status = %d, want 200", code)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	for i := 0; i < 2; i++ {
		if resp.Results[i].Status != http.StatusOK || resp.Results[i].Result == nil {
			t.Fatalf("item %d = %+v, want 200 with result", i, resp.Results[i])
		}
		if resp.Results[i].Cache != string(CacheShared) {
			t.Errorf("item %d cache = %q, want %q", i, resp.Results[i].Cache, CacheShared)
		}
	}
	// The lone member of a different family runs solo.
	if resp.Results[2].Cache == string(CacheShared) {
		t.Errorf("non-family item reported shared cache")
	}

	// Each member's response is bit-identical to a standalone request on a
	// fresh server (everything but the elapsed time).
	for i, req := range []EstimateRequest{family(4), family(8)} {
		_, fresh := newTestServer(t, Config{})
		var want EstimateResponse
		if code := post(t, fresh, "/v1/estimate", req, &want); code != http.StatusOK {
			t.Fatalf("standalone status = %d", code)
		}
		got := *resp.Results[i].Result
		got.ElapsedMS, want.ElapsedMS = 0, 0
		if got != want {
			t.Errorf("item %d: shared-run response %+v != standalone %+v", i, got, want)
		}
	}

	// The family results were cached per member: the repeat batch hits.
	var again BatchResponse
	if code := post(t, ts, "/v1/estimate/batch", batch, &again); code != http.StatusOK {
		t.Fatalf("repeat batch status = %d", code)
	}
	for i := 0; i < 2; i++ {
		if again.Results[i].Cache != string(CacheHit) {
			t.Errorf("repeat item %d cache = %q, want hit", i, again.Results[i].Cache)
		}
		if again.Results[i].Result.Estimate != resp.Results[i].Result.Estimate {
			t.Errorf("repeat item %d estimate changed", i)
		}
	}
}

// TestBatchFamilyDriverVariants checks the shared run stays bit-identical
// to standalone runs whether a family names the broadcast driver or leaves
// it empty (both echo "broadcast"), and that members naming a retired
// driver are rejected item by item with 400 invalid_options.
func TestBatchFamilyDriverVariants(t *testing.T) {
	for _, v := range []struct{ name, driver string }{
		{"broadcast", "broadcast"},
		{"unnamed", ""},
		{"push-broadcast", "push-broadcast"},
		{"replay", "replay"},
	} {
		t.Run(v.name, func(t *testing.T) {
			_, ts := newTestServer(t, Config{})
			mk := func(copies int) EstimateRequest {
				return EstimateRequest{
					Graph:      "k6",
					Algorithm:  "onepass-triangle",
					SampleProb: 0.7,
					Copies:     copies,
					Parallel:   true,
					Driver:     v.driver,
					Seed:       seedPtr(3),
				}
			}
			batch := BatchRequest{Requests: []EstimateRequest{mk(3), mk(5)}}
			var resp BatchResponse
			if code := post(t, ts, "/v1/estimate/batch", batch, &resp); code != http.StatusOK {
				t.Fatalf("batch status = %d", code)
			}
			retired := v.driver != "" && v.driver != "broadcast"
			for i, copies := range []int{3, 5} {
				r := resp.Results[i]
				if retired {
					if r.Status != http.StatusBadRequest || r.Error == nil || r.Error.Code != "invalid_options" || r.Cache != "" {
						t.Errorf("item %d = %+v, want 400 invalid_options", i, r)
					}
					continue
				}
				if r.Status != http.StatusOK || r.Result == nil {
					t.Fatalf("item %d = %+v", i, r)
				}
				if r.Cache != string(CacheShared) {
					t.Errorf("item %d cache = %q, want shared", i, r.Cache)
				}
				if r.Result.Copies != copies || r.Result.Driver != "broadcast" {
					t.Errorf("item %d: copies/driver = %d/%q, want %d/broadcast",
						i, r.Result.Copies, r.Result.Driver, copies)
				}
				_, fresh := newTestServer(t, Config{})
				var want EstimateResponse
				if code := post(t, fresh, "/v1/estimate", mk(copies), &want); code != http.StatusOK {
					t.Fatalf("standalone status = %d", code)
				}
				got := *r.Result
				got.ElapsedMS, want.ElapsedMS = 0, 0
				if got != want {
					t.Errorf("item %d: %+v != standalone %+v", i, got, want)
				}
			}
		})
	}
}
