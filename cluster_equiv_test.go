package adjstream_test

// Cluster equivalence: for every algorithm, the answer produced by a proxy
// fanning copy-range shards out to a fleet must be byte-identical (modulo
// elapsed_ms) to the single-node answer — under 1- and 3-replica
// topologies, and under injected faults: a replica dying mid-shard must be
// absorbed by a retry, and a total fleet outage by the local fallback.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"adjstream"
	"adjstream/internal/cluster"
	"adjstream/internal/gen"
	"adjstream/internal/serve"
)

// newCatalog builds the shared test catalog; every node must hold the
// identical graphs for shard results to merge.
func newCatalog(t *testing.T) *serve.Catalog {
	t.Helper()
	g, err := gen.ErdosRenyi(120, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	cat := serve.NewCatalog()
	for name, graph := range map[string]*adjstream.Graph{
		"er120": g,
		"tri48": gen.DisjointTriangles(48),
		"c4x48": gen.DisjointFourCycles(48),
	} {
		if _, err := cat.Add(name, graph); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// newProxy wires a fleet of n replicas behind a proxy server and returns
// the proxy's test server plus the replica servers (for fault injection).
func newProxy(t *testing.T, n int, cfg serve.Config, clusterCfg cluster.Config) (*httptest.Server, []*httptest.Server) {
	t.Helper()
	reps := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range reps {
		reps[i] = httptest.NewServer(serve.New(newCatalog(t), serve.Config{}).Handler())
		t.Cleanup(reps[i].Close)
		urls[i] = reps[i].URL
	}
	clusterCfg.Replicas = urls
	if clusterCfg.ProbeInterval == 0 {
		clusterCfg.ProbeInterval = -1 // tests control health through requests
	}
	if clusterCfg.BackoffBase == 0 {
		clusterCfg.BackoffBase = time.Millisecond
	}
	sched, err := cluster.New(clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sched.Close)
	cfg.Remote = sched.Run
	proxy := httptest.NewServer(serve.New(newCatalog(t), cfg).Handler())
	t.Cleanup(proxy.Close)
	return proxy, reps
}

// ask POSTs body to url+path and returns the status and the canonical
// response JSON with elapsed_ms removed.
func ask(t *testing.T, url, path, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("decode %q: %v", raw, err)
	}
	delete(m, "elapsed_ms")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(out)
}

// estimateBody builds the request body exercising algo across 7 copies.
// The arbitrary-order algorithms name their model; three of them take
// sample_prob, arb-buriol takes sample_size.
func estimateBody(algo adjstream.Algorithm) string {
	req := map[string]any{
		"graph":     "er120",
		"algorithm": string(algo),
		"copies":    7,
		"parallel":  true,
		"seed":      11,
	}
	switch {
	case algo == adjstream.AlgoArbBuriol:
		req["model"] = string(adjstream.ModelArbitrary)
		req["sample_size"] = 64
	case slices.Contains(adjstream.AlgorithmsForModel(adjstream.ModelArbitrary), algo):
		req["model"] = string(adjstream.ModelArbitrary)
		req["sample_prob"] = 0.3
	case algo != adjstream.AlgoExact:
		req["sample_size"] = 64
		req["pair_cap"] = 512
	}
	b, _ := json.Marshal(req)
	return string(b)
}

func TestClusterByteIdenticalAllAlgorithms(t *testing.T) {
	single := httptest.NewServer(serve.New(newCatalog(t), serve.Config{}).Handler())
	defer single.Close()
	for _, n := range []int{1, 3} {
		proxy, _ := newProxy(t, n, serve.Config{CacheEntries: -1}, cluster.Config{})
		for _, algo := range append(adjstream.Algorithms(), adjstream.AlgorithmsForModel(adjstream.ModelArbitrary)...) {
			t.Run(fmt.Sprintf("%d-replica/%s", n, algo), func(t *testing.T) {
				body := estimateBody(algo)
				wantStatus, want := ask(t, single.URL, "/v1/estimate", body)
				gotStatus, got := ask(t, proxy.URL, "/v1/estimate", body)
				if gotStatus != wantStatus || got != want {
					t.Errorf("proxied (%d): %s\nsingle (%d): %s", gotStatus, got, wantStatus, want)
				}
			})
		}
		// A request naming its model gets the model echoed back, proxied
		// or not.
		t.Run(fmt.Sprintf("%d-replica/explicit-model", n), func(t *testing.T) {
			body := `{"graph":"er120","model":"adjacency-list","algorithm":"twopass-triangle","sample_size":64,"copies":3,"parallel":true,"seed":5}`
			wantStatus, want := ask(t, single.URL, "/v1/estimate", body)
			gotStatus, got := ask(t, proxy.URL, "/v1/estimate", body)
			if gotStatus != wantStatus || got != want {
				t.Errorf("proxied (%d): %s\nsingle (%d): %s", gotStatus, got, wantStatus, want)
			}
			if !strings.Contains(want, `"model":"adjacency-list"`) {
				t.Errorf("single-node body %s does not echo the model", want)
			}
		})
	}
}

func TestClusterByteIdenticalDistinguish(t *testing.T) {
	single := httptest.NewServer(serve.New(newCatalog(t), serve.Config{}).Handler())
	defer single.Close()
	proxy, _ := newProxy(t, 3, serve.Config{CacheEntries: -1}, cluster.Config{})
	for _, tc := range []struct {
		graph    string
		cycleLen int
		model    string
	}{
		{"tri48", 3, ""}, {"c4x48", 3, ""}, {"c4x48", 4, ""}, {"tri48", 4, ""}, {"er120", 5, ""},
		{"tri48", 3, "adjacency-list"}, {"c4x48", 4, "adjacency-list"},
	} {
		body := fmt.Sprintf(`{"graph":%q,"cycle_len":%d,"copies":3,"seed":7}`, tc.graph, tc.cycleLen)
		if tc.model != "" {
			body = fmt.Sprintf(`{"graph":%q,"model":%q,"cycle_len":%d,"copies":3,"seed":7}`, tc.graph, tc.model, tc.cycleLen)
		}
		wantStatus, want := ask(t, single.URL, "/v1/distinguish", body)
		gotStatus, got := ask(t, proxy.URL, "/v1/distinguish", body)
		if gotStatus != wantStatus || got != want {
			t.Errorf("%s C%d model %q: proxied (%d) %s != single (%d) %s",
				tc.graph, tc.cycleLen, tc.model, gotStatus, got, wantStatus, want)
		}
	}
}

// TestClusterRetriesDeadReplica kills one replica's connection mid-shard
// (once); the scheduler must absorb it with a retry and still answer
// byte-identically.
func TestClusterRetriesDeadReplica(t *testing.T) {
	single := httptest.NewServer(serve.New(newCatalog(t), serve.Config{}).Handler())
	defer single.Close()

	var killed atomic.Bool
	cat := newCatalog(t)
	inner := serve.New(cat, serve.Config{}).Handler()
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/shard" && killed.CompareAndSwap(false, true) {
			panic(http.ErrAbortHandler) // drop the connection mid-request
		}
		inner.ServeHTTP(w, r)
	}))
	defer dying.Close()

	healthy := make([]*httptest.Server, 2)
	urls := []string{dying.URL}
	for i := range healthy {
		healthy[i] = httptest.NewServer(serve.New(newCatalog(t), serve.Config{}).Handler())
		defer healthy[i].Close()
		urls = append(urls, healthy[i].URL)
	}
	sched, err := cluster.New(cluster.Config{
		Replicas: urls, ProbeInterval: -1, BackoffBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()
	proxy := httptest.NewServer(serve.New(newCatalog(t), serve.Config{CacheEntries: -1, Remote: sched.Run}).Handler())
	defer proxy.Close()

	// Issue requests until the dying replica has taken its hit (placement
	// is hash-driven, so sweep a few seeds to be sure a shard lands on it).
	for seed := 0; seed < 8 && !killed.Load(); seed++ {
		body := fmt.Sprintf(`{"graph":"er120","algorithm":"twopass-triangle","sample_size":64,"copies":7,"parallel":true,"seed":%d}`, seed)
		wantStatus, want := ask(t, single.URL, "/v1/estimate", body)
		gotStatus, got := ask(t, proxy.URL, "/v1/estimate", body)
		if gotStatus != wantStatus || got != want {
			t.Fatalf("seed %d: proxied (%d) %s != single (%d) %s", seed, gotStatus, got, wantStatus, want)
		}
	}
	if !killed.Load() {
		t.Fatal("no shard ever reached the dying replica; broaden the sweep")
	}
}

// TestClusterLocalFallback takes the whole fleet down: with fallback the
// proxy answers identically from its local pool; with -no-fallback
// semantics it reports 503.
func TestClusterLocalFallback(t *testing.T) {
	single := httptest.NewServer(serve.New(newCatalog(t), serve.Config{}).Handler())
	defer single.Close()
	body := estimateBody(adjstream.AlgoThreePassTriangle)

	proxy, reps := newProxy(t, 3, serve.Config{CacheEntries: -1}, cluster.Config{Attempts: 2})
	strict, strictReps := newProxy(t, 3, serve.Config{CacheEntries: -1, NoLocalFallback: true}, cluster.Config{Attempts: 2})
	for _, r := range append(reps, strictReps...) {
		r.Close()
	}

	wantStatus, want := ask(t, single.URL, "/v1/estimate", body)
	gotStatus, got := ask(t, proxy.URL, "/v1/estimate", body)
	if gotStatus != wantStatus || got != want {
		t.Errorf("fallback: proxied (%d) %s != single (%d) %s", gotStatus, got, wantStatus, want)
	}
	status, errBody := ask(t, strict.URL, "/v1/estimate", body)
	if status != http.StatusServiceUnavailable {
		t.Errorf("no-fallback outage: status %d (%s), want 503", status, errBody)
	}
	// The failure wears the uniform error envelope.
	var er struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal([]byte(errBody), &er); err != nil {
		t.Fatalf("decode error envelope %q: %v", errBody, err)
	}
	if er.Error.Code != "remote_unavailable" || er.Error.Message == "" {
		t.Errorf("error envelope = %+v, want code remote_unavailable with a message", er.Error)
	}
}
