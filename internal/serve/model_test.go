package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"
	"time"

	"adjstream"
)

// postFull sends body and returns the raw response, for header assertions.
func postFull(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// The model axis end to end: an arbitrary-order estimate over a catalog
// graph at p = 1 returns the exact count, echoes the model, reports no
// driver, and the repeat is a cache hit.
func TestEstimateArbitraryModelRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := EstimateRequest{
		Graph: "k6", Model: "arbitrary", Algorithm: "arb-twopass-wedge",
		SampleProb: 1, Seed: seedPtr(1),
	}
	resp := postFull(t, ts.URL+"/v1/estimate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); got != string(CacheMiss) {
		t.Fatalf("first X-Cache = %q", got)
	}
	var body EstimateResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Estimate != 20 { // K6: 20 triangles
		t.Fatalf("estimate = %v, want 20", body.Estimate)
	}
	if body.Model != "arbitrary" {
		t.Fatalf("model echoed as %q", body.Model)
	}
	if body.Driver != "" {
		t.Fatalf("driver = %q, want empty for arbitrary runs", body.Driver)
	}
	if body.M != 15 || body.Passes != 2 {
		t.Fatalf("metadata m=%d passes=%d", body.M, body.Passes)
	}

	again := postFull(t, ts.URL+"/v1/estimate", req)
	if got := again.Header.Get("X-Cache"); got != string(CacheHit) {
		t.Fatalf("repeat X-Cache = %q", got)
	}
	var cached EstimateResponse
	if err := json.NewDecoder(again.Body).Decode(&cached); err != nil {
		t.Fatal(err)
	}
	if cached != body {
		t.Fatalf("cached response %+v != fresh %+v", cached, body)
	}

	// The 4-cycle family over the same API: K6 has 45 four-cycles.
	var c4 EstimateResponse
	code := post(t, ts, "/v1/estimate", EstimateRequest{
		Graph: "k6", Model: "arbitrary", Algorithm: "arb-threepass-fourcycle",
		SampleProb: 1, Seed: seedPtr(1),
	}, &c4)
	if code != http.StatusOK || c4.Estimate != 45 || c4.Passes != 3 {
		t.Fatalf("threepass-fourcycle: code %d, %+v", code, c4)
	}
}

// Cache-collision regression: two keys identical in everything but the
// model must be distinct cache entries — if model ever drops out of
// cacheKey, the second Put overwrites the first and this test fails.
func TestCacheKeysDistinctPerModel(t *testing.T) {
	c := NewCache(64, 0)
	base := cacheKey{kind: "estimate", graph: "g", algorithm: "exact", seed: 1}
	arb := base
	arb.model = "arbitrary"
	c.Put(base, EstimateResponse{Estimate: 1})
	c.Put(arb, EstimateResponse{Estimate: 2})
	got, ok := c.Get(base)
	if !ok || got.Estimate != 1 {
		t.Fatalf("adjacency-list entry = %+v, %v", got, ok)
	}
	got, ok = c.Get(arb)
	if !ok || got.Estimate != 2 {
		t.Fatalf("arbitrary entry = %+v, %v", got, ok)
	}
}

func TestModelValidationOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		path string
		req  any
	}{
		{"unknown model", "/v1/estimate", EstimateRequest{Graph: "k6", Model: "edge-list", Algorithm: "exact"}},
		{"AL algorithm under arbitrary", "/v1/estimate", EstimateRequest{Graph: "k6", Model: "arbitrary", Algorithm: "exact"}},
		{"arb algorithm without model", "/v1/estimate", EstimateRequest{Graph: "k6", Algorithm: "arb-twopass-wedge", SampleProb: 1}},
		{"driver under arbitrary", "/v1/estimate", EstimateRequest{Graph: "k6", Model: "arbitrary", Algorithm: "arb-twopass-wedge", SampleProb: 1, Driver: "broadcast"}},
		{"distinguish rejects model", "/v1/distinguish", EstimateRequest{Graph: "k6", Model: "arbitrary"}},
		{"shard checks the model's roster", "/v1/shard", ShardRequest{
			EstimateRequest: EstimateRequest{Graph: "k6", Model: "arbitrary", Algorithm: "twopass-triangle", SampleProb: 1, Copies: 2},
			CopyLo:          0, CopyHi: 1,
		}},
	}
	for _, c := range cases {
		var errResp ErrorResponse
		if code := post(t, ts, c.path, c.req, &errResp); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, code)
			continue
		}
		if errResp.Error.Code != "invalid_options" {
			t.Errorf("%s: code %q", c.name, errResp.Error.Code)
		}
	}
}

// /v1/shard serves the arbitrary model: copy ranges of each arbitrary-order
// algorithm merge into the single-node /v1/estimate answer.
func TestShardArbitraryModelMergesToSingleNode(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, algo := range adjstream.AlgorithmsForModel(adjstream.ModelArbitrary) {
		req := EstimateRequest{
			Graph: "k6", Model: "arbitrary", Algorithm: string(algo),
			SampleProb: 0.6, Copies: 5, Parallel: true, Seed: seedPtr(7),
		}
		if algo == adjstream.AlgoArbBuriol {
			req.SampleProb, req.SampleSize = 0, 8
		}
		var want EstimateResponse
		if code := post(t, ts, "/v1/estimate", req, &want); code != http.StatusOK {
			t.Fatalf("%s: single-node status = %d", algo, code)
		}
		var all []adjstream.CopySnapshot
		for _, rng := range [][2]int{{0, 2}, {2, 5}} {
			code, _, body := postShard(t, ts.URL, ShardRequest{EstimateRequest: req, CopyLo: rng[0], CopyHi: rng[1]})
			if code != http.StatusOK {
				t.Fatalf("%s: shard [%d,%d) status = %d: %s", algo, rng[0], rng[1], code, body)
			}
			_, snaps, err := adjstream.ReadSnapshotSet(bytes.NewReader(body))
			if err != nil {
				t.Fatalf("%s: decode shard body: %v", algo, err)
			}
			all = append(all, snaps...)
		}
		res, err := adjstream.MergeSnapshots(all)
		if err != nil {
			t.Fatalf("%s: merge: %v", algo, err)
		}
		got := NewEstimateResponse("estimate", req, nil, res, time.Now())
		got.GraphVersion, got.GraphFingerprint = want.GraphVersion, want.GraphFingerprint
		got.ElapsedMS, want.ElapsedMS = 0, 0
		if got != want {
			t.Errorf("%s: merged shards %+v != single node %+v", algo, got, want)
		}
	}
}

// Batch items may select the arbitrary model. Items identical up to the
// copy count form a family like adjacency-list ones do: one shard run of the
// largest count, each member merged from its prefix of the snapshots, and
// each member's body byte-identical to its standalone run's (elapsed time
// aside).
func TestBatchArbitraryModel(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	mk := func(copies int) EstimateRequest {
		return EstimateRequest{
			Graph: "k6", Model: "arbitrary", Algorithm: "arb-twopass-wedge",
			SampleProb: 0.5, Copies: copies, Parallel: true, Seed: seedPtr(3),
		}
	}
	var batch BatchResponse
	code := post(t, ts, "/v1/estimate/batch", BatchRequest{Requests: []EstimateRequest{mk(4), mk(8)}}, &batch)
	if code != http.StatusOK || len(batch.Results) != 2 {
		t.Fatalf("code %d, results %d", code, len(batch.Results))
	}
	for i, item := range batch.Results {
		if item.Error != nil || item.Result == nil {
			t.Fatalf("item %d: %+v", i, item)
		}
		if item.Cache != string(CacheShared) {
			t.Fatalf("item %d: cache %q, want %q (one family run)", i, item.Cache, CacheShared)
		}
		if item.Result.Model != "arbitrary" {
			t.Fatalf("item %d model %q", i, item.Result.Model)
		}
		// Each item must equal its standalone run, on a server whose cache
		// has not seen it.
		_, fresh := newTestServer(t, Config{})
		var solo EstimateResponse
		if code := post(t, fresh, "/v1/estimate", batchReq(mk, i), &solo); code != http.StatusOK {
			t.Fatalf("item %d: solo status %d", i, code)
		}
		got := *item.Result
		got.ElapsedMS, solo.ElapsedMS = 0, 0
		if got != solo {
			t.Fatalf("item %d: batch %+v != solo %+v", i, got, solo)
		}
	}
}

func batchReq(mk func(int) EstimateRequest, i int) EstimateRequest {
	if i == 0 {
		return mk(4)
	}
	return mk(8)
}

// Cluster mode routes arbitrary-model runs to the remote runner like
// adjacency-list ones: both models shard over the same snapshot transport.
func TestArbitraryModelGoesThroughRemote(t *testing.T) {
	var seen []string
	cfg := Config{
		Remote: func(ctx context.Context, kind string, req EstimateRequest, ds *Dataset) (EstimateResponse, error) {
			seen = append(seen, req.Model+"/"+req.Algorithm)
			return EstimateResponse{}, errors.New("remote failed") // not ErrRemoteUnavailable: no local fallback
		},
	}
	_, ts := newTestServer(t, cfg)
	for _, req := range []EstimateRequest{
		{Graph: "k6", Model: "arbitrary", Algorithm: "arb-twopass-wedge", SampleProb: 1, Seed: seedPtr(1)},
		{Graph: "k6", Algorithm: "exact"},
	} {
		var errResp ErrorResponse
		if code := post(t, ts, "/v1/estimate", req, &errResp); code != http.StatusInternalServerError {
			t.Fatalf("%s run bypassed the remote: code %d", req.Algorithm, code)
		}
	}
	if want := []string{"arbitrary/arb-twopass-wedge", "/exact"}; len(seen) != 2 || seen[0] != want[0] || seen[1] != want[1] {
		t.Fatalf("remote saw %v, want %v", seen, want)
	}
}
