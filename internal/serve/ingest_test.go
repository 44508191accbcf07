package serve

// Tests for the graphs REST resource: live edge ingestion, versioned
// snapshots, version echo in estimates, and the cache's re-key across
// version bumps.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// ingest POSTs an edge batch and decodes the response (or error envelope).
func ingest(t *testing.T, ts *httptest.Server, graph string, req EdgeBatchRequest) (int, EdgeBatchResponse, *ErrorDetail) {
	t.Helper()
	var raw json.RawMessage
	code := post(t, ts, "/v1/graphs/"+graph+"/edges", req, &raw)
	if code == http.StatusOK {
		var resp EdgeBatchResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatalf("decode ingest response %s: %v", raw, err)
		}
		return code, resp, nil
	}
	var er ErrorResponse
	if err := json.Unmarshal(raw, &er); err != nil {
		t.Fatalf("decode ingest error %s: %v", raw, err)
	}
	return code, EdgeBatchResponse{}, &er.Error
}

// graphDetail GETs /v1/graphs/{name}.
func graphDetail(t *testing.T, ts *httptest.Server, name string) (int, GraphDetail) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/graphs/" + name)
	if err != nil {
		t.Fatalf("GET graph detail: %v", err)
	}
	defer resp.Body.Close()
	var d GraphDetail
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			t.Fatalf("decode graph detail: %v", err)
		}
	}
	return resp.StatusCode, d
}

func TestIngestStageAndFlush(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Stage two removals: no merge yet, estimates still see version 1.
	code, resp, _ := ingest(t, ts, "k6", EdgeBatchRequest{
		BatchID: "b1",
		Remove:  [][2]int64{{0, 1}, {0, 2}},
	})
	if code != http.StatusOK {
		t.Fatalf("stage: status = %d, want 200", code)
	}
	if resp.Applied != 2 || resp.Merged || resp.PendingOps != 2 || resp.GraphVersion != 1 {
		t.Errorf("stage response = %+v, want applied 2, pending 2, version 1", resp)
	}
	var est EstimateResponse
	if post(t, ts, "/v1/estimate", EstimateRequest{Graph: "k6", Algorithm: "exact"}, &est); est.Estimate != 20 {
		t.Errorf("pre-merge estimate = %v, want 20 (staged ops must be invisible)", est.Estimate)
	}

	// Flush: the delta merges and publishes version 2.
	code, resp, _ = ingest(t, ts, "k6", EdgeBatchRequest{BatchID: "b2", Flush: true})
	if code != http.StatusOK || !resp.Merged || resp.GraphVersion != 2 || resp.PendingOps != 0 {
		t.Fatalf("flush response = %+v (code %d), want merged at version 2 with 0 pending", resp, code)
	}

	// K6 minus edges {0,1} and {0,2}: triangles through a missing edge are
	// gone. C(6,3)=20, each removed edge kills 4 triangles, none shared
	// except {0,1,2} counted twice: 20 - 4 - 4 + 1 = 13.
	if post(t, ts, "/v1/estimate", EstimateRequest{Graph: "k6", Algorithm: "exact"}, &est); est.Estimate != 13 {
		t.Errorf("post-merge estimate = %v, want 13", est.Estimate)
	}
	if est.GraphVersion != 2 {
		t.Errorf("post-merge estimate version = %d, want 2", est.GraphVersion)
	}

	// The detail resource reflects the new version and retention history.
	code, d := graphDetail(t, ts, "k6")
	if code != http.StatusOK {
		t.Fatalf("detail status = %d", code)
	}
	if d.Version != 2 || d.PendingOps != 0 || len(d.RetainedVersions) != 2 ||
		d.RetainedVersions[0] != 1 || d.RetainedVersions[1] != 2 {
		t.Errorf("detail = %+v, want version 2 retaining [1 2]", d)
	}
	if d.M != 13 { // 15 edges minus 2 removed
		t.Errorf("detail m = %d, want 13", d.M)
	}
	if d.Fingerprint != est.GraphFingerprint {
		t.Errorf("detail fingerprint %q != estimate echo %q", d.Fingerprint, est.GraphFingerprint)
	}
	if d.Degrees.Max != 5 || d.Degrees.Wedges <= 0 {
		t.Errorf("detail degrees = %+v, want max 5 and positive wedges", d.Degrees)
	}
}

func TestIngestIdempotency(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	req := EdgeBatchRequest{BatchID: "retry-me", Add: [][2]int64{{10, 11}}}
	code, first, _ := ingest(t, ts, "k6", req)
	if code != http.StatusOK || first.Duplicate {
		t.Fatalf("first = %+v (code %d)", first, code)
	}
	code, second, _ := ingest(t, ts, "k6", req)
	if code != http.StatusOK || !second.Duplicate {
		t.Fatalf("replay = %+v (code %d), want duplicate=true", second, code)
	}
	if second.Applied != first.Applied || second.PendingOps != first.PendingOps ||
		second.GraphVersion != first.GraphVersion {
		t.Errorf("replay %+v differs from recorded %+v beyond the duplicate flag", second, first)
	}
	md, _ := srv.cat.GetMutable("k6")
	if md.PendingOps() != 1 {
		t.Errorf("pending ops = %d after replay, want 1 (replay must not re-apply)", md.PendingOps())
	}
}

func TestIngestAtomicRollback(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	// Valid add, then an invalid removal: the whole batch must reject and
	// leave no trace.
	code, _, er := ingest(t, ts, "k6", EdgeBatchRequest{
		BatchID: "bad",
		Add:     [][2]int64{{20, 21}},
		Remove:  [][2]int64{{20, 99}}, // not an edge
	})
	if code != http.StatusBadRequest || er == nil || er.Code != "invalid_edge_op" {
		t.Fatalf("invalid batch: code %d envelope %+v, want 400 invalid_edge_op", code, er)
	}
	md, _ := srv.cat.GetMutable("k6")
	if md.PendingOps() != 0 {
		t.Fatalf("pending ops = %d after rejected batch, want 0", md.PendingOps())
	}
	// The rolled-back add must be re-addable (rollback actually removed it).
	if code, resp, _ := ingest(t, ts, "k6", EdgeBatchRequest{
		BatchID: "good", Add: [][2]int64{{20, 21}}, Flush: true,
	}); code != http.StatusOK || !resp.Merged {
		t.Errorf("follow-up batch = %+v (code %d), want merged 200", resp, code)
	}
}

func TestIngestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, path, body string
		wantCode         int
		wantErrCode      string
	}{
		{"missing batch_id", "/v1/graphs/k6/edges", `{"add":[[1,2]]}`, http.StatusBadRequest, "invalid_options"},
		{"unknown graph", "/v1/graphs/ghost/edges", `{"batch_id":"x","add":[[1,2]]}`, http.StatusNotFound, "unknown_graph"},
		{"unknown sub-resource", "/v1/graphs/k6/nope", `{}`, http.StatusNotFound, "unknown_graph"},
		{"unknown field", "/v1/graphs/k6/edges", `{"batch_id":"x","bogus":1}`, http.StatusBadRequest, "invalid_options"},
	}
	for _, c := range cases {
		code, _, body := postRaw(t, ts, c.path, c.body)
		if code != c.wantCode {
			t.Errorf("%s: status = %d, want %d", c.name, code, c.wantCode)
			continue
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Errorf("%s: decode envelope %s: %v", c.name, body, err)
			continue
		}
		if er.Error.Code != c.wantErrCode {
			t.Errorf("%s: error code = %q, want %q", c.name, er.Error.Code, c.wantErrCode)
		}
	}

	// Wrong methods answer 405 with an Allow header across the resource.
	for _, c := range []struct{ method, path, allow string }{
		{http.MethodGet, "/v1/graphs/k6/edges", http.MethodPost},
		{http.MethodPost, "/v1/graphs", http.MethodGet},
		{http.MethodDelete, "/v1/graphs/k6", http.MethodGet},
	} {
		req, _ := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader("{}"))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var er ErrorResponse
		json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != c.allow ||
			er.Error.Code != "method_not_allowed" {
			t.Errorf("%s %s: status %d Allow %q code %q, want 405 %q method_not_allowed",
				c.method, c.path, resp.StatusCode, resp.Header.Get("Allow"), er.Error.Code, c.allow)
		}
	}

	// An op-count bomb is rejected before staging.
	var sb strings.Builder
	sb.WriteString(`{"batch_id":"big","add":[`)
	for i := 0; i <= maxIngestOps; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, "[%d,%d]", i, i+100000)
	}
	sb.WriteString(`]}`)
	if code, _, _ := postRaw(t, ts, "/v1/graphs/k6/edges", sb.String()); code != http.StatusBadRequest {
		t.Errorf("oversized batch: status = %d, want 400", code)
	}
}

// TestIngestRejectsOutOfRangeIDs checks that vertex ids outside
// [0, 2^32-1] — which no adjacency-list stream can hold — are rejected as
// invalid edge ops before staging, so no version is published for them.
func TestIngestRejectsOutOfRangeIDs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i, body := range []string{
		`{"batch_id":"neg","add":[[-1,5]],"flush":true}`,
		`{"batch_id":"big","add":[[8589934592,0]],"flush":true}`,
		`{"batch_id":"edge","add":[[0,4294967296]],"flush":true}`,
		`{"batch_id":"rm","remove":[[-1,5]],"flush":true}`,
	} {
		code, _, raw := postRaw(t, ts, "/v1/graphs/k6/edges", body)
		var er ErrorResponse
		if err := json.Unmarshal(raw, &er); err != nil {
			t.Fatalf("case %d: decode envelope %s: %v", i, raw, err)
		}
		if code != http.StatusBadRequest || er.Error.Code != "invalid_edge_op" {
			t.Errorf("case %d: status %d code %q, want 400 invalid_edge_op", i, code, er.Error.Code)
		}
	}
	if _, d := graphDetail(t, ts, "k6"); d.Version != 1 {
		t.Errorf("version = %d after rejected batches, want 1", d.Version)
	}
	// The largest id is accepted.
	code, resp, er := ingest(t, ts, "k6", EdgeBatchRequest{BatchID: "max", Add: [][2]int64{{0, 4294967295}}, Flush: true})
	if code != http.StatusOK || !resp.Merged {
		t.Errorf("id 2^32-1: status %d resp %+v err %+v, want a merged batch", code, resp, er)
	}
}

// TestCacheRekeysAcrossVersions is the cache-coherence acceptance check:
// a cached result is served for repeats of the same version but never
// across a version bump, and the version echo in a cached response is the
// version it was computed at.
func TestCacheRekeysAcrossVersions(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"graph":"k6","algorithm":"exact","seed":1}`

	code, outcome, fresh := postRaw(t, ts, "/v1/estimate", body)
	if code != http.StatusOK || outcome != string(CacheMiss) {
		t.Fatalf("fresh: status %d X-Cache %q, want 200 miss", code, outcome)
	}
	if code, outcome, _ = postRaw(t, ts, "/v1/estimate", body); outcome != string(CacheHit) {
		t.Fatalf("repeat: X-Cache %q, want hit", outcome)
	}

	// Publish version 2. The same request must be a fresh run, with the
	// new count and the new version echoed.
	if code, resp, _ := ingest(t, ts, "k6", EdgeBatchRequest{
		BatchID: "v2", Remove: [][2]int64{{0, 1}}, Flush: true,
	}); code != http.StatusOK || resp.GraphVersion != 2 {
		t.Fatalf("ingest = %+v (code %d), want version 2", resp, code)
	}
	code, outcome, after := postRaw(t, ts, "/v1/estimate", body)
	if code != http.StatusOK || outcome != string(CacheMiss) {
		t.Fatalf("post-bump: status %d X-Cache %q, want 200 miss (stale hit!)", code, outcome)
	}
	var was, now EstimateResponse
	if err := json.Unmarshal(fresh, &was); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(after, &now); err != nil {
		t.Fatal(err)
	}
	if was.GraphVersion != 1 || now.GraphVersion != 2 {
		t.Errorf("version echo: was %d now %d, want 1 then 2", was.GraphVersion, now.GraphVersion)
	}
	if was.Estimate != 20 || now.Estimate != 16 { // one edge of K6 removed: 20 - 4
		t.Errorf("estimates: was %v now %v, want 20 then 16", was.Estimate, now.Estimate)
	}
	if was.GraphFingerprint == now.GraphFingerprint || was.GraphFingerprint == "" {
		t.Errorf("fingerprint did not change across the bump: %q vs %q", was.GraphFingerprint, now.GraphFingerprint)
	}
	// And the new version's repeat is itself cacheable.
	if _, outcome, _ = postRaw(t, ts, "/v1/estimate", body); outcome != string(CacheHit) {
		t.Errorf("post-bump repeat: X-Cache %q, want hit", outcome)
	}
}

// TestShardVersionPinning exercises /v1/shard's version resolution: a
// pinned retained version still runs after merges, evicted or unknown
// versions answer 409, and fingerprint mismatches are caught.
func TestShardVersionPinning(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	md, _ := srv.cat.GetMutable("k6")
	v1 := md.Current()

	shardPost := func(req ShardRequest) (int, string) {
		t.Helper()
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/shard", "application/json", strings.NewReader(string(b)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return resp.StatusCode, ""
		}
		var er ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatalf("decode shard error: %v", err)
		}
		return resp.StatusCode, er.Error.Code
	}
	spec := EstimateRequest{Graph: "k6", Algorithm: "exact", Seed: seedPtr(1)}
	shard := func(version uint64, fp string) ShardRequest {
		return ShardRequest{EstimateRequest: spec, CopyLo: 0, CopyHi: 1,
			GraphVersion: version, GraphFingerprint: fp}
	}

	// Publish version 2 so version 1 is history but still retained.
	if code, resp, _ := ingest(t, ts, "k6", EdgeBatchRequest{
		BatchID: "bump", Remove: [][2]int64{{0, 1}}, Flush: true,
	}); code != http.StatusOK || resp.GraphVersion != 2 {
		t.Fatalf("ingest: %+v (code %d)", resp, code)
	}

	v1fp := fmt.Sprintf("%016x", v1.Fingerprint())
	if code, ec := shardPost(shard(1, v1fp)); code != http.StatusOK {
		t.Errorf("retained version 1: status %d (%s), want 200", code, ec)
	}
	if code, ec := shardPost(shard(0, "")); code != http.StatusOK {
		t.Errorf("unpinned: status %d (%s), want 200", code, ec)
	}
	if code, ec := shardPost(shard(99, "")); code != http.StatusConflict || ec != "version_unavailable" {
		t.Errorf("unknown version: status %d code %q, want 409 version_unavailable", code, ec)
	}
	if code, ec := shardPost(shard(1, "00000000deadbeef")); code != http.StatusConflict || ec != "version_unavailable" {
		t.Errorf("fingerprint mismatch: status %d code %q, want 409 version_unavailable", code, ec)
	}
	if code, ec := shardPost(shard(0, v1fp)); code != http.StatusBadRequest || ec != "invalid_options" {
		t.Errorf("fingerprint without version: status %d code %q, want 400 invalid_options", code, ec)
	}
	if code, ec := shardPost(shard(1, "xyz")); code != http.StatusBadRequest || ec != "invalid_options" {
		t.Errorf("malformed fingerprint: status %d code %q, want 400 invalid_options", code, ec)
	}
}

// TestMergePolicy exercises threshold-driven merges and version retention
// directly against the MutableDataset.
func TestMergePolicy(t *testing.T) {
	cat := NewCatalog()
	cat.SetMergePolicy(4, 2)
	if _, err := cat.Add("g", completeGraph(t, 5)); err != nil {
		t.Fatal(err)
	}
	md, _ := cat.GetMutable("g")

	// Three ops stage; the fourth crosses the threshold and merges.
	for i, batch := range []EdgeBatchRequest{
		{BatchID: "a", Add: [][2]int64{{10, 11}, {11, 12}}},
		{BatchID: "b", Add: [][2]int64{{12, 13}}},
	} {
		resp, _, err := md.ApplyBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Merged {
			t.Fatalf("batch %d merged below threshold: %+v", i, resp)
		}
	}
	resp, _, err := md.ApplyBatch(EdgeBatchRequest{BatchID: "c", Add: [][2]int64{{13, 14}}})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Merged || resp.GraphVersion != 2 || resp.PendingOps != 0 {
		t.Fatalf("threshold batch = %+v, want merge to version 2", resp)
	}

	// Another merge evicts version 1 (maxVersions = 2 keeps {2, 3}).
	if resp, _, err = md.ApplyBatch(EdgeBatchRequest{BatchID: "d", Add: [][2]int64{{14, 15}}, Flush: true}); err != nil || resp.GraphVersion != 3 {
		t.Fatalf("flush: %+v, %v", resp, err)
	}
	if got := md.RetainedVersions(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("retained = %v, want [2 3]", got)
	}
	if _, err := md.At(1, 0); !errors.Is(err, ErrVersionGone) {
		t.Errorf("At(1) after eviction = %v, want ErrVersionGone", err)
	}

	// A flush whose delta cancels to nothing publishes no version.
	if resp, _, err = md.ApplyBatch(EdgeBatchRequest{BatchID: "e", Add: [][2]int64{{50, 51}}}); err != nil || resp.Merged {
		t.Fatalf("stage: %+v, %v", resp, err)
	}
	resp, _, err = md.ApplyBatch(EdgeBatchRequest{BatchID: "f", Remove: [][2]int64{{50, 51}}, Flush: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Merged || resp.GraphVersion != 3 || resp.PendingOps != 0 {
		t.Errorf("canceling flush = %+v, want no merge, version still 3, pending reset", resp)
	}
}

// TestIngestDrainingRejected: a draining server admits no mutations.
func TestIngestDrainingRejected(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	srv.SetDraining(true)
	code, _, er := ingest(t, ts, "k6", EdgeBatchRequest{BatchID: "late", Add: [][2]int64{{1, 2}}})
	if code != http.StatusServiceUnavailable || er == nil || er.Code != "draining" {
		t.Errorf("draining ingest: code %d envelope %+v, want 503 draining", code, er)
	}
}
