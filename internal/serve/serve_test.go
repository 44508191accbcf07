package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adjstream"
)

// seedPtr returns a request seed literal.
func seedPtr(v uint64) *uint64 { return &v }

// completeGraph returns K_n.
func completeGraph(t *testing.T, n int) *adjstream.Graph {
	t.Helper()
	var edges []adjstream.Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, adjstream.Edge{U: adjstream.V(u), V: adjstream.V(v)})
		}
	}
	g, err := adjstream.FromEdges(edges)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	return g
}

// starGraph returns a star with n leaves (cycle-free).
func starGraph(t *testing.T, n int) *adjstream.Graph {
	t.Helper()
	var edges []adjstream.Edge
	for v := 1; v <= n; v++ {
		edges = append(edges, adjstream.Edge{U: 0, V: adjstream.V(v)})
	}
	g, err := adjstream.FromEdges(edges)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	return g
}

// newTestServer builds a catalog with "k6" (20 triangles) and "star"
// (cycle-free), a Server with cfg, and an httptest server around its
// handler. The httptest server (rather than bare handler calls) is what
// makes client disconnects cancel r.Context.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cat := NewCatalog()
	if _, err := cat.Add("k6", completeGraph(t, 6)); err != nil {
		t.Fatalf("Add k6: %v", err)
	}
	if _, err := cat.Add("star", starGraph(t, 5)); err != nil {
		t.Fatalf("Add star: %v", err)
	}
	srv := New(cat, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// post sends body to path and decodes the response JSON into out.
func post(t *testing.T, ts *httptest.Server, path string, body any, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", path, err)
		}
	}
	return resp.StatusCode
}

func TestEstimateExactRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var resp EstimateResponse
	code := post(t, ts, "/v1/estimate", EstimateRequest{Graph: "k6", Algorithm: "exact"}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200", code)
	}
	if resp.Estimate != 20 { // C(6,3) triangles in K6
		t.Errorf("estimate = %v, want 20", resp.Estimate)
	}
	if resp.Graph != "k6" || resp.Passes <= 0 || resp.M != 15 || resp.Copies != 1 {
		t.Errorf("unexpected response: %+v", resp)
	}
	if resp.Found != nil {
		t.Errorf("estimate response carries found = %v", *resp.Found)
	}
}

// TestEstimateMatchesLibrary asserts the service returns bit-identical
// results to a direct library call with the same options — the service adds
// transport, not arithmetic.
func TestEstimateMatchesLibrary(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := EstimateRequest{
		Graph:      "k6",
		Algorithm:  string(adjstream.AlgoNaiveTwoPass),
		SampleSize: 30,
		Copies:     3,
		Parallel:   true,
		Driver:     string(adjstream.DriverBroadcast),
		Seed:       seedPtr(7),
	}
	var resp EstimateResponse
	if code := post(t, ts, "/v1/estimate", req, &resp); code != http.StatusOK {
		t.Fatalf("status = %d, want 200", code)
	}
	want, err := adjstream.Estimate(adjstream.SortedStream(completeGraph(t, 6)), req.options())
	if err != nil {
		t.Fatalf("library Estimate: %v", err)
	}
	if resp.Estimate != want.Estimate || resp.SpaceWords != want.SpaceWords ||
		resp.Passes != want.Passes || resp.Copies != want.Copies {
		t.Errorf("service %+v != library %+v", resp, want)
	}
}

func TestDistinguishRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		graph string
		want  bool
	}{
		{"k6", true},
		{"star", false},
	} {
		var resp EstimateResponse
		code := post(t, ts, "/v1/distinguish", EstimateRequest{Graph: tc.graph, SampleSize: 64, Seed: seedPtr(3)}, &resp)
		if code != http.StatusOK {
			t.Fatalf("%s: status = %d, want 200", tc.graph, code)
		}
		if resp.Found == nil || *resp.Found != tc.want {
			t.Errorf("%s: found = %v, want %v", tc.graph, resp.Found, tc.want)
		}
	}
}

func TestGraphsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatalf("GET /v1/graphs: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var gr GraphsResponse
	if err := json.NewDecoder(resp.Body).Decode(&gr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(gr.Graphs) != 2 || gr.Graphs[0].Name != "k6" || gr.Graphs[1].Name != "star" {
		t.Fatalf("graphs = %+v, want sorted [k6 star]", gr.Graphs)
	}
	if gr.Graphs[0].N != 6 || gr.Graphs[0].M != 15 {
		t.Errorf("k6 info = %+v, want n=6 m=15", gr.Graphs[0])
	}
}

func TestErrorMapping(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name     string
		path     string
		req      EstimateRequest
		want     int
		wantCode string
	}{
		{"unknown graph", "/v1/estimate", EstimateRequest{Graph: "nope", Algorithm: "exact"}, http.StatusNotFound, "unknown_graph"},
		{"unknown algorithm", "/v1/estimate", EstimateRequest{Graph: "k6", Algorithm: "nope"}, http.StatusBadRequest, "unknown_algorithm"},
		{"missing algorithm", "/v1/estimate", EstimateRequest{Graph: "k6"}, http.StatusBadRequest, "invalid_options"},
		{"bad order", "/v1/estimate", EstimateRequest{Graph: "k6", Algorithm: "exact", Order: "shuffled"}, http.StatusBadRequest, "invalid_options"},
		{"bad cycle len", "/v1/distinguish", EstimateRequest{Graph: "k6", CycleLen: 2}, http.StatusBadRequest, "invalid_options"},
		{"retired replay driver", "/v1/estimate", EstimateRequest{Graph: "k6", Algorithm: "exact", Copies: 3, Parallel: true, Driver: "replay"}, http.StatusBadRequest, "invalid_options"},
		{"retired push driver", "/v1/estimate", EstimateRequest{Graph: "k6", Algorithm: "exact", Copies: 3, Parallel: true, Driver: "push-broadcast"}, http.StatusBadRequest, "invalid_options"},
	}
	for _, tc := range cases {
		var er ErrorResponse
		if code := post(t, ts, tc.path, tc.req, &er); code != tc.want {
			t.Errorf("%s: status = %d, want %d (error %+v)", tc.name, code, tc.want, er.Error)
		} else if er.Error.Code != tc.wantCode || er.Error.Message == "" {
			t.Errorf("%s: envelope = %+v, want code %q with a message", tc.name, er.Error, tc.wantCode)
		}
	}

	// Unknown JSON fields are rejected, not silently dropped.
	resp, err := http.Post(ts.URL+"/v1/estimate", "application/json",
		strings.NewReader(`{"graph":"k6","algorithm":"exact","bogus":1}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status = %d, want 400", resp.StatusCode)
	}

	// Wrong method: 405 with an Allow header and the envelope code.
	resp, err = http.Get(ts.URL + "/v1/estimate")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("decode 405 body: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET estimate: status = %d, want 405", resp.StatusCode)
	}
	if resp.Header.Get("Allow") != http.MethodPost {
		t.Errorf("GET estimate: Allow = %q, want POST", resp.Header.Get("Allow"))
	}
	if er.Error.Code != "method_not_allowed" {
		t.Errorf("GET estimate: envelope code = %q, want method_not_allowed", er.Error.Code)
	}
}

func TestRandomOrderDeterministic(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := EstimateRequest{
		Graph: "k6", Algorithm: string(adjstream.AlgoNaiveTwoPass),
		SampleSize: 30, Seed: seedPtr(11), Order: "random",
	}
	var a, b EstimateResponse
	if code := post(t, ts, "/v1/estimate", req, &a); code != http.StatusOK {
		t.Fatalf("first: status = %d", code)
	}
	if code := post(t, ts, "/v1/estimate", req, &b); code != http.StatusOK {
		t.Fatalf("second: status = %d", code)
	}
	if a.Estimate != b.Estimate || a.SpaceWords != b.SpaceWords {
		t.Errorf("same seed, different results: %+v vs %+v", a, b)
	}
}

// gate is the deterministic test seam: each request signals entered and
// blocks until release or its context fires.
type gate struct {
	entered chan struct{}
	release chan struct{}
}

func newGate() *gate {
	return &gate{entered: make(chan struct{}, 16), release: make(chan struct{})}
}

func (g *gate) hook(ctx context.Context) {
	g.entered <- struct{}{}
	select {
	case <-g.release:
	case <-ctx.Done():
	}
}

func waitEntered(t *testing.T, g *gate) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the worker slot")
	}
}

func TestSaturationReturns429(t *testing.T) {
	g := newGate()
	// CacheEntries -1: the duplicate request must hit the pool, not
	// coalesce with the in-flight one.
	srv, ts := newTestServer(t, Config{Workers: 1, Queue: -1, CacheEntries: -1, testHookRun: g.hook})

	first := make(chan int, 1)
	go func() {
		var resp EstimateResponse
		first <- post(t, ts, "/v1/estimate", EstimateRequest{Graph: "k6", Algorithm: "exact"}, &resp)
	}()
	waitEntered(t, g)

	// Slot held, queue disabled: the next request must fail fast.
	resp, err := http.Post(ts.URL+"/v1/estimate", "application/json",
		strings.NewReader(`{"graph":"k6","algorithm":"exact"}`))
	if err != nil {
		t.Fatalf("second POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated: status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After header")
	}
	if srv.Pool().Rejected() == 0 {
		t.Error("pool did not count the rejection")
	}

	close(g.release)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("first request: status = %d, want 200", code)
	}
}

// TestDeadlineCancelsAndFreesSlot drives a request past its deadline while
// it holds the only worker slot: the run must fail with 504 and the slot
// must come back so the next request succeeds.
func TestDeadlineCancelsAndFreesSlot(t *testing.T) {
	g := newGate()
	srv, ts := newTestServer(t, Config{Workers: 1, Queue: -1, CacheEntries: -1, testHookRun: g.hook})

	// The hook blocks until the 20ms deadline fires, so the run starts
	// with an expired context.
	var resp EstimateResponse
	code := post(t, ts, "/v1/estimate",
		EstimateRequest{Graph: "k6", Algorithm: "exact", TimeoutMS: 20}, &resp)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: status = %d, want 504", code)
	}

	deadline := time.After(5 * time.Second)
	for !srv.Pool().Idle() {
		select {
		case <-deadline:
			t.Fatal("worker slot never released after cancellation")
		case <-time.After(time.Millisecond):
		}
	}

	// The freed slot serves the next request (gate open from here on).
	close(g.release)
	var ok EstimateResponse
	if code := post(t, ts, "/v1/estimate", EstimateRequest{Graph: "k6", Algorithm: "exact"}, &ok); code != http.StatusOK {
		t.Fatalf("after cancellation: status = %d, want 200", code)
	}
	if ok.Estimate != 20 {
		t.Errorf("estimate = %v, want 20", ok.Estimate)
	}
}

// TestExactCycleCountHonoursDeadline: an exact 9-cycle count on K20 runs
// for hours, and all of it after the pass loop. With timeout_ms 200 the
// count itself must stop at the deadline — /v1/estimate and
// /v1/distinguish each answer 504 within about a second and hand the only
// worker slot back.
func TestExactCycleCountHonoursDeadline(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, Queue: -1, CacheEntries: -1})
	if _, err := srv.cat.Add("k20", completeGraph(t, 20)); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/estimate", "/v1/distinguish"} {
		req := EstimateRequest{Graph: "k20", CycleLen: 9, TimeoutMS: 200}
		if path == "/v1/estimate" {
			req.Algorithm = "exact"
		}
		start := time.Now()
		if code := post(t, ts, path, req, nil); code != http.StatusGatewayTimeout {
			t.Fatalf("%s: status = %d, want 504", path, code)
		}
		if el := time.Since(start); el > 1500*time.Millisecond {
			t.Errorf("%s: 504 after %v, want about the 200ms deadline", path, el)
		}
		deadline := time.After(2 * time.Second)
		for !srv.Pool().Idle() {
			select {
			case <-deadline:
				t.Fatalf("%s: worker slot still held after the deadline", path)
			case <-time.After(time.Millisecond):
			}
		}
	}
	var ok EstimateResponse
	if code := post(t, ts, "/v1/estimate", EstimateRequest{Graph: "k6", Algorithm: "exact", CycleLen: 5}, &ok); code != http.StatusOK {
		t.Fatalf("after the deadlines: status = %d, want 200", code)
	}
	if ok.Estimate != 72 {
		t.Errorf("K6 5-cycles = %v, want 72", ok.Estimate)
	}
}

// TestClientDisconnectFreesSlot cancels the client's request mid-run and
// asserts the worker slot is returned.
func TestClientDisconnectFreesSlot(t *testing.T) {
	g := newGate()
	srv, ts := newTestServer(t, Config{Workers: 1, Queue: -1, CacheEntries: -1, testHookRun: g.hook})
	defer close(g.release)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/estimate",
		strings.NewReader(`{"graph":"k6","algorithm":"exact"}`))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitEntered(t, g)
	cancel()
	<-done

	deadline := time.After(5 * time.Second)
	for !srv.Pool().Idle() {
		select {
		case <-deadline:
			t.Fatal("worker slot never released after client disconnect")
		case <-time.After(time.Millisecond):
		}
	}
}

// TestGracefulDrain flips drain mode while a request is in flight: health
// and new work go 503, the in-flight request completes, and DrainWait
// returns once the pool is empty.
func TestGracefulDrain(t *testing.T) {
	g := newGate()
	srv, ts := newTestServer(t, Config{Workers: 2, CacheEntries: -1, testHookRun: g.hook})

	first := make(chan EstimateResponse, 1)
	go func() {
		var resp EstimateResponse
		if code := post(t, ts, "/v1/estimate", EstimateRequest{Graph: "k6", Algorithm: "exact"}, &resp); code != http.StatusOK {
			resp.Estimate = -1
		}
		first <- resp
	}()
	waitEntered(t, g)

	srv.SetDraining(true)

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	var health HealthResponse
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable || health.Status != "draining" {
		t.Fatalf("draining healthz = %d %+v, want 503 draining", hr.StatusCode, health)
	}
	if health.InFlight != 1 {
		t.Errorf("healthz in_flight = %d, want 1", health.InFlight)
	}

	if code := post(t, ts, "/v1/estimate", EstimateRequest{Graph: "k6", Algorithm: "exact"}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("estimate while draining: status = %d, want 503", code)
	}

	// The in-flight request runs to completion with a correct answer.
	close(g.release)
	resp := <-first
	if resp.Estimate != 20 {
		t.Fatalf("in-flight request under drain: estimate = %v, want 20", resp.Estimate)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.DrainWait(ctx); err != nil {
		t.Fatalf("DrainWait: %v", err)
	}

	srv.SetDraining(false)
	hr, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz after drain off = %d, want 200", hr.StatusCode)
	}
}

func TestPoolAcquire(t *testing.T) {
	p := NewPool(1, 0)
	rel, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if p.InFlight() != 1 {
		t.Errorf("InFlight = %d, want 1", p.InFlight())
	}
	if _, err := p.Acquire(context.Background()); err != ErrSaturated {
		t.Fatalf("saturated Acquire err = %v, want ErrSaturated", err)
	}
	rel()
	rel() // idempotent
	if !p.Idle() {
		t.Error("pool not idle after release")
	}
	if rel2, err := p.Acquire(context.Background()); err != nil {
		t.Fatalf("Acquire after release: %v", err)
	} else {
		rel2()
	}
}

func TestPoolQueueWaiterCancel(t *testing.T) {
	p := NewPool(1, 1)
	rel, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	defer rel()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := p.Acquire(ctx)
		errc <- err
	}()
	deadline := time.After(5 * time.Second)
	for p.Waiting() == 0 {
		select {
		case <-deadline:
			t.Fatal("waiter never queued")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("canceled waiter err = %v, want context.Canceled", err)
	}
	if p.Waiting() != 0 {
		t.Errorf("Waiting = %d after cancel, want 0", p.Waiting())
	}
	// The abandoned ticket is returned: a fresh waiter can still queue.
	select {
	case p.tickets <- struct{}{}:
		<-p.tickets
	default:
		t.Error("ticket leaked by canceled waiter")
	}
}

func TestCatalogLoadDir(t *testing.T) {
	dir := t.TempDir()
	writeEdges := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatalf("write %s: %v", name, err)
		}
	}
	writeEdges("tri.edges", "0 1\n1 2\n2 0\n")
	writeEdges("path.txt", "0 1\n1 2\n")
	cat := NewCatalog()
	n, err := cat.LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if n != 2 || cat.Len() != 2 {
		t.Fatalf("loaded %d datasets (len %d), want 2", n, cat.Len())
	}
	d, ok := cat.Get("tri")
	if !ok {
		t.Fatal("dataset tri missing")
	}
	if info := d.Info(); info.N != 3 || info.M != 3 {
		t.Errorf("tri info = %+v, want n=3 m=3", info)
	}
	if _, ok := cat.Get("nope"); ok {
		t.Error("Get(nope) = ok")
	}
}

// postRaw sends body (pre-marshaled JSON) to path and returns the status,
// X-Cache header, and raw response body.
func postRaw(t *testing.T, ts *httptest.Server, path, body string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s response: %v", path, err)
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), b
}

// TestSeedZeroVsAbsent is the regression test for the omitempty seed bug:
// an explicit "seed": 0 must behave exactly like an absent seed (both run
// the server default), the response must always echo the effective seed,
// and a non-zero explicit seed must echo back unchanged.
func TestSeedZeroVsAbsent(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	code, outcome, absent := postRaw(t, ts, "/v1/estimate", `{"graph":"k6","algorithm":"exact"}`)
	if code != http.StatusOK {
		t.Fatalf("absent seed: status = %d, want 200", code)
	}
	if outcome != string(CacheMiss) {
		t.Fatalf("absent seed: X-Cache = %q, want miss", outcome)
	}
	var resp EstimateResponse
	if err := json.Unmarshal(absent, &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if resp.Seed != 0 {
		t.Errorf("absent seed echoed as %d, want 0", resp.Seed)
	}
	if !bytes.Contains(absent, []byte(`"seed":0`)) {
		t.Errorf("response does not carry the effective seed: %s", absent)
	}

	// Explicit zero resolves to the same effective seed — and therefore
	// the same cache key: the repeat must be a hit with an identical body.
	code, outcome, explicit := postRaw(t, ts, "/v1/estimate", `{"graph":"k6","algorithm":"exact","seed":0}`)
	if code != http.StatusOK {
		t.Fatalf("explicit seed 0: status = %d, want 200", code)
	}
	if outcome != string(CacheHit) {
		t.Errorf("explicit seed 0 after absent: X-Cache = %q, want hit (same canonical key)", outcome)
	}
	if !bytes.Equal(absent, explicit) {
		t.Errorf("explicit 0 body differs from absent-seed body:\n%s\nvs\n%s", explicit, absent)
	}

	code, _, five := postRaw(t, ts, "/v1/estimate", `{"graph":"k6","algorithm":"exact","seed":5}`)
	if code != http.StatusOK {
		t.Fatalf("seed 5: status = %d, want 200", code)
	}
	if err := json.Unmarshal(five, &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if resp.Seed != 5 {
		t.Errorf("seed 5 echoed as %d", resp.Seed)
	}
}

// TestValidationBeforeAdmission saturates a size-1 pool with a legitimate
// in-flight request and asserts malformed or misaddressed requests are
// rejected immediately with 400/404 — they must not consume (or wait for)
// a worker slot — while a well-formed request correctly sees 429.
func TestValidationBeforeAdmission(t *testing.T) {
	g := newGate()
	srv, ts := newTestServer(t, Config{Workers: 1, Queue: -1, CacheEntries: -1, testHookRun: g.hook})

	first := make(chan int, 1)
	go func() {
		var resp EstimateResponse
		first <- post(t, ts, "/v1/estimate", EstimateRequest{Graph: "k6", Algorithm: "exact"}, &resp)
	}()
	waitEntered(t, g)

	invalid := []struct {
		name string
		path string
		body string
		want int
	}{
		{"unknown algorithm", "/v1/estimate", `{"graph":"k6","algorithm":"nope"}`, http.StatusBadRequest},
		{"missing algorithm", "/v1/estimate", `{"graph":"k6"}`, http.StatusBadRequest},
		{"unknown graph", "/v1/estimate", `{"graph":"ghost","algorithm":"exact"}`, http.StatusNotFound},
		{"bad order", "/v1/estimate", `{"graph":"k6","algorithm":"exact","order":"shuffled"}`, http.StatusBadRequest},
		{"bad cycle len", "/v1/distinguish", `{"graph":"k6","cycle_len":2}`, http.StatusBadRequest},
		{"conflicting copies", "/v1/estimate", `{"graph":"k6","algorithm":"exact","copies":3,"confidence":0.9}`, http.StatusBadRequest},
	}
	for _, tc := range invalid {
		code, _, _ := postRaw(t, ts, tc.path, tc.body)
		if code != tc.want {
			t.Errorf("%s under saturation: status = %d, want %d", tc.name, code, tc.want)
		}
	}
	if rejected := srv.Pool().Rejected(); rejected != 0 {
		t.Errorf("invalid requests reached the pool: %d rejections", rejected)
	}

	// A well-formed request really is saturated out — the slot is held.
	code, _, _ := postRaw(t, ts, "/v1/estimate", `{"graph":"star","algorithm":"exact"}`)
	if code != http.StatusTooManyRequests {
		t.Errorf("valid request under saturation: status = %d, want 429", code)
	}

	close(g.release)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("in-flight request: status = %d, want 200", code)
	}
}

// TestCatalogDeterministicOrderAndDuplicate asserts Infos() is sorted by
// name no matter how Add and LoadDir interleave, and that duplicate names
// fail with the ErrDuplicateGraph sentinel from both Add and LoadFile.
func TestCatalogDeterministicOrderAndDuplicate(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"zeta.edges":  "0 1\n1 2\n2 0\n",
		"alpha.edges": "0 1\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cat := NewCatalog()
	if _, err := cat.Add("mid", completeGraph(t, 4)); err != nil {
		t.Fatalf("Add mid: %v", err)
	}
	if _, err := cat.LoadDir(dir); err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if _, err := cat.Add("aaa", completeGraph(t, 3)); err != nil {
		t.Fatalf("Add aaa: %v", err)
	}
	want := []string{"aaa", "alpha", "mid", "zeta"}
	infos := cat.Infos()
	if len(infos) != len(want) {
		t.Fatalf("Infos len = %d, want %d", len(infos), len(want))
	}
	for i, info := range infos {
		if info.Name != want[i] {
			t.Fatalf("Infos()[%d] = %q, want %q (full order %+v)", i, info.Name, want[i], infos)
		}
		if info.Fingerprint == "" {
			t.Errorf("%s: empty fingerprint", info.Name)
		}
	}

	if _, err := cat.Add("mid", completeGraph(t, 5)); !errors.Is(err, ErrDuplicateGraph) {
		t.Errorf("duplicate Add err = %v, want ErrDuplicateGraph", err)
	}
	if err := cat.LoadFile("alpha", filepath.Join(dir, "alpha.edges")); !errors.Is(err, ErrDuplicateGraph) {
		t.Errorf("duplicate LoadFile err = %v, want ErrDuplicateGraph", err)
	}
	// Failed adds change nothing.
	if got := cat.Len(); got != len(want) {
		t.Errorf("Len after failed adds = %d, want %d", got, len(want))
	}
}

// TestFingerprintDistinguishesContent: same name, different edges, must
// produce different fingerprints — the property cache invalidation on
// catalog reload rests on.
func TestFingerprintDistinguishesContent(t *testing.T) {
	a := NewCatalog()
	b := NewCatalog()
	da, err := a.Add("g", completeGraph(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	db, err := b.Add("g", completeGraph(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	if da.Fingerprint() == db.Fingerprint() {
		t.Errorf("different graphs share fingerprint %016x", da.Fingerprint())
	}
	same, err := NewCatalog().Add("other", completeGraph(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	if da.Fingerprint() != same.Fingerprint() {
		t.Errorf("identical graphs differ: %016x vs %016x", da.Fingerprint(), same.Fingerprint())
	}
}

// TestCacheHitByteIdentical: the repeat of a request is served from the
// cache with a byte-identical body.
func TestCacheHitByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"graph":"k6","algorithm":"naive-twopass","sample_size":30,"copies":3,"parallel":true,"seed":7}`
	code, outcome, fresh := postRaw(t, ts, "/v1/estimate", body)
	if code != http.StatusOK || outcome != string(CacheMiss) {
		t.Fatalf("fresh: status %d X-Cache %q, want 200 miss", code, outcome)
	}
	code, outcome, cached := postRaw(t, ts, "/v1/estimate", body)
	if code != http.StatusOK || outcome != string(CacheHit) {
		t.Fatalf("repeat: status %d X-Cache %q, want 200 hit", code, outcome)
	}
	if !bytes.Equal(fresh, cached) {
		t.Errorf("cached body differs:\nfresh  %s\ncached %s", fresh, cached)
	}
	// A different seed is a different key.
	code, outcome, _ = postRaw(t, ts, "/v1/estimate",
		`{"graph":"k6","algorithm":"naive-twopass","sample_size":30,"copies":3,"parallel":true,"seed":8}`)
	if code != http.StatusOK || outcome != string(CacheMiss) {
		t.Errorf("different seed: status %d X-Cache %q, want 200 miss", code, outcome)
	}
}

// TestBatchEndpoint: many specs in one body, one bad spec does not fail
// the batch, repeats are served from the cache.
func TestBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	batch := BatchRequest{Requests: []EstimateRequest{
		{Graph: "k6", Algorithm: "exact"},
		{Graph: "k6", Algorithm: "nope"},
		{Graph: "ghost", Algorithm: "exact"},
		{Graph: "star", Algorithm: "exact"},
	}}
	var resp BatchResponse
	if code := post(t, ts, "/v1/estimate/batch", batch, &resp); code != http.StatusOK {
		t.Fatalf("batch status = %d, want 200", code)
	}
	if len(resp.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(resp.Results))
	}
	if r := resp.Results[0]; r.Status != http.StatusOK || r.Result == nil || r.Result.Estimate != 20 {
		t.Errorf("item 0 = %+v, want 200 with 20 triangles", r)
	}
	if r := resp.Results[1]; r.Status != http.StatusBadRequest || r.Error == nil || r.Error.Code != "unknown_algorithm" || r.Result != nil {
		t.Errorf("item 1 = %+v, want 400 with unknown_algorithm error", r)
	}
	if r := resp.Results[2]; r.Status != http.StatusNotFound || r.Error == nil || r.Error.Code != "unknown_graph" {
		t.Errorf("item 2 = %+v, want 404 with unknown_graph error", r)
	}
	if r := resp.Results[3]; r.Status != http.StatusOK || r.Result == nil || r.Result.Estimate != 0 {
		t.Errorf("item 3 = %+v, want 200 with 0 triangles", r)
	}

	// The repeat batch answers the valid items from the cache.
	var again BatchResponse
	if code := post(t, ts, "/v1/estimate/batch", batch, &again); code != http.StatusOK {
		t.Fatalf("repeat batch status = %d", code)
	}
	for _, i := range []int{0, 3} {
		if again.Results[i].Cache != string(CacheHit) {
			t.Errorf("repeat item %d cache = %q, want hit", i, again.Results[i].Cache)
		}
		if got, want := again.Results[i].Result.Estimate, resp.Results[i].Result.Estimate; got != want {
			t.Errorf("repeat item %d estimate = %v, want %v", i, got, want)
		}
	}

	// Envelope errors: empty and oversized batches, wrong method.
	if code, _, _ := postRaw(t, ts, "/v1/estimate/batch", `{"requests":[]}`); code != http.StatusBadRequest {
		t.Errorf("empty batch: status = %d, want 400", code)
	}
	big := BatchRequest{Requests: make([]EstimateRequest, maxBatchItems+1)}
	if code := post(t, ts, "/v1/estimate/batch", big, nil); code != http.StatusBadRequest {
		t.Errorf("oversized batch: status = %d, want 400", code)
	}
	getResp, err := http.Get(ts.URL + "/v1/estimate/batch")
	if err != nil {
		t.Fatalf("GET batch: %v", err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET batch: status = %d, want 405", getResp.StatusCode)
	}
}

// cacheTestResp builds a distinguishable response for cache unit tests.
func cacheTestResp(v float64) EstimateResponse {
	return EstimateResponse{Graph: "g", Estimate: v}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(cacheShards, 0) // one entry per shard
	keys := make([]cacheKey, 0, 64)
	for i := 0; i < 64; i++ {
		k := cacheKey{kind: "estimate", graph: "g", seed: uint64(i)}
		keys = append(keys, k)
		c.Put(k, cacheTestResp(float64(i)))
	}
	if got := c.Len(); got > cacheShards {
		t.Errorf("Len = %d after 64 puts, want <= %d", got, cacheShards)
	}
	// Whatever remains must be the newest entry of its shard: every
	// surviving key returns its own value.
	survivors := 0
	for i, k := range keys {
		if resp, ok := c.Get(k); ok {
			survivors++
			if resp.Estimate != float64(i) {
				t.Errorf("key %d returned estimate %v", i, resp.Estimate)
			}
		}
	}
	if survivors == 0 || survivors > cacheShards {
		t.Errorf("survivors = %d, want in [1, %d]", survivors, cacheShards)
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	c := NewCache(64, 5*time.Millisecond)
	k := cacheKey{kind: "estimate", graph: "g", seed: 1}
	c.Put(k, cacheTestResp(1))
	if _, ok := c.Get(k); !ok {
		t.Fatal("fresh entry missing")
	}
	time.Sleep(15 * time.Millisecond)
	if _, ok := c.Get(k); ok {
		t.Error("entry survived past its TTL")
	}
}

// TestCacheCoalescing: N concurrent Do calls on one key run the underlying
// function exactly once; one caller reports miss, the rest coalesced.
func TestCacheCoalescing(t *testing.T) {
	c := NewCache(64, 0)
	k := cacheKey{kind: "estimate", graph: "g", seed: 42}
	var runs atomic.Int64
	release := make(chan struct{})
	run := func(ctx context.Context) (EstimateResponse, error) {
		runs.Add(1)
		select {
		case <-release:
			return cacheTestResp(7), nil
		case <-ctx.Done():
			return EstimateResponse{}, ctx.Err()
		}
	}
	const n = 16
	outcomes := make(chan CacheOutcome, n)
	errs := make(chan error, n)
	var started sync.WaitGroup
	for i := 0; i < n; i++ {
		started.Add(1)
		go func() {
			started.Done()
			resp, outcome, err := c.Do(context.Background(), k, time.Minute, run)
			if err == nil && resp.Estimate != 7 {
				err = errors.New("wrong cached value")
			}
			outcomes <- outcome
			errs <- err
		}()
	}
	started.Wait()
	// Let every goroutine reach the flight before releasing the run.
	for runs.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	miss, coalesced := 0, 0
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("Do: %v", err)
		}
		switch <-outcomes {
		case CacheMiss:
			miss++
		case CacheCoalesced:
			coalesced++
		}
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("underlying run executed %d times, want exactly 1", got)
	}
	if miss != 1 || coalesced != n-1 {
		t.Errorf("outcomes: %d miss, %d coalesced; want 1 and %d", miss, coalesced, n-1)
	}
	// The populated entry serves subsequent calls without running.
	if resp, outcome, err := c.Do(context.Background(), k, time.Minute, run); err != nil || outcome != CacheHit || resp.Estimate != 7 {
		t.Errorf("post-flight Do = (%v, %v, %v), want hit of 7", resp.Estimate, outcome, err)
	}
}

// TestCacheWaiterAbandonKeepsLeaderRunning: a waiter whose context fires
// gets its own context error, while the leader's run continues untouched
// and still populates the cache.
func TestCacheWaiterAbandonKeepsLeaderRunning(t *testing.T) {
	c := NewCache(64, 0)
	k := cacheKey{kind: "estimate", graph: "g", seed: 9}
	release := make(chan struct{})
	sawCancel := make(chan error, 1)
	run := func(ctx context.Context) (EstimateResponse, error) {
		select {
		case <-release:
			sawCancel <- nil
			return cacheTestResp(3), nil
		case <-ctx.Done():
			sawCancel <- ctx.Err()
			return EstimateResponse{}, ctx.Err()
		}
	}
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), k, time.Minute, run)
		leaderDone <- err
	}()
	// Wait for the flight to exist, then join it with a cancellable waiter.
	deadline := time.After(5 * time.Second)
	for {
		sh := &c.shards[k.shardOf()]
		sh.mu.Lock()
		_, ok := sh.flights[k]
		sh.mu.Unlock()
		if ok {
			break
		}
		select {
		case <-deadline:
			t.Fatal("flight never registered")
		case <-time.After(time.Millisecond):
		}
	}
	wctx, wcancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(wctx, k, time.Minute, run)
		waiterDone <- err
	}()
	time.Sleep(5 * time.Millisecond) // let the waiter join
	wcancel()
	if err := <-waiterDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning waiter err = %v, want context.Canceled", err)
	}
	// The leader's run is still alive: releasing it completes the flight.
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader err = %v after waiter abandoned", err)
	}
	if err := <-sawCancel; err != nil {
		t.Fatalf("run context fired (%v) although the leader was still waiting", err)
	}
	if resp, ok := c.Get(k); !ok || resp.Estimate != 3 {
		t.Errorf("result not cached after flight: %v %v", resp.Estimate, ok)
	}
}
