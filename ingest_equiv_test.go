package adjstream_test

// Concurrent-ingest equivalence: while a flood of edge batches advances a
// graph through versions, every estimate the server admits pins exactly one
// published snapshot — so replaying the same request against a cold catalog
// seeded with that version's graph (serve.Catalog.AddAt) must reproduce the
// response byte-for-byte (elapsed_ms aside), for every algorithm under
// sequential and broadcast execution (driver named or left empty), and
// through a 3-replica cluster. Run with -race: the flood and the estimators
// hammer the same MutableDataset.

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"adjstream"
	"adjstream/internal/cluster"
	"adjstream/internal/gen"
	"adjstream/internal/serve"
)

// edgeKey orders an undirected edge canonically.
func edgeKey(u, v int64) [2]int64 {
	if u > v {
		u, v = v, u
	}
	return [2]int64{u, v}
}

// liveGraph is the seed graph every node starts from.
func liveGraph(t *testing.T) (*adjstream.Graph, map[[2]int64]bool) {
	t.Helper()
	g, err := gen.ErdosRenyi(60, 0.1, 17)
	if err != nil {
		t.Fatal(err)
	}
	edges := make(map[[2]int64]bool)
	for _, e := range g.Edges() {
		edges[edgeKey(int64(e.U), int64(e.V))] = true
	}
	return g, edges
}

// rebuild turns a recorded edge set back into a Graph for the cold catalog.
func rebuild(t *testing.T, edges map[[2]int64]bool) *adjstream.Graph {
	t.Helper()
	es := make([]adjstream.Edge, 0, len(edges))
	for e := range edges {
		es = append(es, adjstream.Edge{U: adjstream.V(e[0]), V: adjstream.V(e[1])})
	}
	g, err := adjstream.FromEdges(es)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// floodBatches drives nBatches single-op flushed edge batches through
// baseURL's live graph, alternating adds of new edges among the original
// vertices with removals of edges a previous batch added (so no original
// vertex ever loses its last edge and the vertex set stays fixed). It
// returns the edge set of every published version; version 1 is the seed.
func floodBatches(t *testing.T, baseURL string, seedEdges map[[2]int64]bool, nBatches int) map[uint64]map[[2]int64]bool {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	cur := make(map[[2]int64]bool, len(seedEdges))
	for e := range seedEdges {
		cur[e] = true
	}
	snapshot := func() map[[2]int64]bool {
		c := make(map[[2]int64]bool, len(cur))
		for e := range cur {
			c[e] = true
		}
		return c
	}
	versions := map[uint64]map[[2]int64]bool{1: snapshot()}
	var added [][2]int64

	for i := 0; i < nBatches; i++ {
		req := serve.EdgeBatchRequest{BatchID: fmt.Sprintf("flood-%d", i), Flush: true}
		if len(added) > 0 && rng.Intn(3) == 0 {
			j := rng.Intn(len(added))
			e := added[j]
			added = append(added[:j], added[j+1:]...)
			req.Remove = [][2]int64{e}
			delete(cur, e)
		} else {
			var e [2]int64
			for {
				e = edgeKey(int64(rng.Intn(60)), int64(rng.Intn(60)))
				if e[0] != e[1] && !cur[e] {
					break
				}
			}
			req.Add = [][2]int64{e}
			added = append(added, e)
			cur[e] = true
		}
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(baseURL+"/v1/graphs/live/edges", "application/json", strings.NewReader(string(b)))
		if err != nil {
			t.Fatal(err)
		}
		var out serve.EdgeBatchResponse
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("flood batch %d: status %d: %s", i, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if !out.Merged {
			t.Fatalf("flood batch %d did not merge: %+v", i, out)
		}
		versions[out.GraphVersion] = snapshot()
	}
	return versions
}

// estimateBodies builds the request matrix: every algorithm × {sequential,
// broadcast named, broadcast by default}.
func estimateBodies() []string {
	var bodies []string
	for _, algo := range adjstream.Algorithms() {
		for _, mode := range []map[string]any{
			{"parallel": false},
			{"parallel": true, "driver": string(adjstream.DriverBroadcast)},
			{"parallel": true},
		} {
			req := map[string]any{
				"graph":     "live",
				"algorithm": string(algo),
				"copies":    3,
				"seed":      23,
			}
			if algo != adjstream.AlgoExact {
				req["sample_size"] = 48
				req["pair_cap"] = 256
			}
			for k, v := range mode {
				req[k] = v
			}
			b, _ := json.Marshal(req)
			bodies = append(bodies, string(b))
		}
	}
	return bodies
}

// recorded is one admitted estimate: the request body, the version it ran
// against, and the canonical response (elapsed_ms stripped).
type recorded struct {
	body     string
	version  uint64
	response string
}

// canonicalEstimate POSTs body and returns the pinned version and the
// response with elapsed_ms removed. It returns an error (rather than
// failing t) because the estimator goroutines call it concurrently.
func canonicalEstimate(baseURL, body string) (uint64, string, error) {
	resp, err := http.Post(baseURL+"/v1/estimate", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, "", fmt.Errorf("POST estimate: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, "", fmt.Errorf("estimate status %d: %s", resp.StatusCode, raw)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		return 0, "", fmt.Errorf("decode %s: %w", raw, err)
	}
	delete(m, "elapsed_ms")
	version, _ := m["graph_version"].(float64)
	out, err := json.Marshal(m)
	if err != nil {
		return 0, "", err
	}
	return uint64(version), string(out), nil
}

// verifyAgainstColdCatalogs replays every recorded estimate against a fresh
// catalog seeded (via AddAt) with exactly the graph version the live run
// pinned, and demands byte-identity.
func verifyAgainstColdCatalogs(t *testing.T, recs []recorded, versions map[uint64]map[[2]int64]bool) {
	t.Helper()
	byVersion := make(map[uint64][]recorded)
	for _, r := range recs {
		byVersion[r.version] = append(byVersion[r.version], r)
	}
	for version, rs := range byVersion {
		edges, ok := versions[version]
		if !ok {
			t.Errorf("estimate pinned version %d, which the flood never published", version)
			continue
		}
		cat := serve.NewCatalog()
		if _, err := cat.AddAt("live", rebuild(t, edges), version); err != nil {
			t.Fatal(err)
		}
		cold := httptest.NewServer(serve.New(cat, serve.Config{CacheEntries: -1}).Handler())
		seen := make(map[string]string)
		for _, r := range rs {
			want, ok := seen[r.body]
			if !ok {
				var err error
				if _, want, err = canonicalEstimate(cold.URL, r.body); err != nil {
					t.Fatalf("cold catalog at version %d: %v", version, err)
				}
				seen[r.body] = want
			}
			if r.response != want {
				t.Errorf("version %d: live response differs from cold catalog\nbody: %s\nlive: %s\ncold: %s",
					version, r.body, r.response, want)
			}
		}
		cold.Close()
	}
}

// runFloodWithEstimators floods baseURL while estimator goroutines hammer
// the same graph, and returns the recordings plus the version history.
func runFloodWithEstimators(t *testing.T, baseURL string, seedEdges map[[2]int64]bool, nBatches int) ([]recorded, map[uint64]map[[2]int64]bool) {
	t.Helper()
	bodies := estimateBodies()
	done := make(chan struct{})
	var mu sync.Mutex
	var recs []recorded
	var errs []error
	var wg sync.WaitGroup
	for _, body := range bodies {
		wg.Add(1)
		go func(body string) {
			defer wg.Done()
			for {
				version, resp, err := canonicalEstimate(baseURL, body)
				mu.Lock()
				if err != nil {
					errs = append(errs, err)
				} else {
					recs = append(recs, recorded{body, version, resp})
				}
				mu.Unlock()
				select {
				case <-done:
					return
				case <-time.After(time.Millisecond):
				}
			}
		}(body)
	}
	versions := floodBatches(t, baseURL, seedEdges, nBatches)
	close(done)
	wg.Wait()
	for _, err := range errs {
		t.Errorf("estimate during flood: %v", err)
	}
	return recs, versions
}

func TestIngestEquivalenceSingleNode(t *testing.T) {
	g, seedEdges := liveGraph(t)
	cat := serve.NewCatalog()
	cat.SetMergePolicy(1<<20, 64) // only flushes merge; retain everything
	if _, err := cat.Add("live", g); err != nil {
		t.Fatal(err)
	}
	// The estimator matrix outnumbers the worker pool; a deep queue keeps
	// admission from shedding load mid-test.
	ts := httptest.NewServer(serve.New(cat, serve.Config{CacheEntries: -1, Queue: 256}).Handler())
	defer ts.Close()

	recs, versions := runFloodWithEstimators(t, ts.URL, seedEdges, 24)
	if len(recs) < len(estimateBodies()) {
		t.Fatalf("only %d estimates recorded", len(recs))
	}
	verifyAgainstColdCatalogs(t, recs, versions)
}

// TestIngestEquivalenceCluster runs the same flood through a proxy backed
// by three replicas: batches fan out to the whole fleet, sharded estimates
// pin the proxy's version, and every admitted response must still match a
// cold single-node catalog of that version.
func TestIngestEquivalenceCluster(t *testing.T) {
	newNode := func() *serve.Catalog {
		g, _ := liveGraph(t)
		cat := serve.NewCatalog()
		cat.SetMergePolicy(1<<20, 64)
		if _, err := cat.Add("live", g); err != nil {
			t.Fatal(err)
		}
		return cat
	}
	urls := make([]string, 3)
	for i := range urls {
		rep := httptest.NewServer(serve.New(newNode(), serve.Config{Queue: 256}).Handler())
		t.Cleanup(rep.Close)
		urls[i] = rep.URL
	}
	sched, err := cluster.New(cluster.Config{
		Replicas: urls, ProbeInterval: -1, BackoffBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()
	proxy := httptest.NewServer(serve.New(newNode(), serve.Config{
		CacheEntries: -1, Queue: 256, Remote: sched.Run, RemoteIngest: sched.Mutate,
	}).Handler())
	defer proxy.Close()

	_, seedEdges := liveGraph(t)
	recs, versions := runFloodWithEstimators(t, proxy.URL, seedEdges, 16)
	verifyAgainstColdCatalogs(t, recs, versions)

	// The fan-out kept the whole fleet in lockstep: every node reports the
	// same final version and fingerprint.
	type state struct {
		Version     uint64
		Fingerprint string
	}
	var want state
	for i, u := range append([]string{proxy.URL}, urls...) {
		resp, err := http.Get(u + "/v1/graphs/live")
		if err != nil {
			t.Fatal(err)
		}
		var d state
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if i == 0 {
			want = d
			continue
		}
		if d != want {
			t.Errorf("node %d diverged: %+v, proxy has %+v", i, d, want)
		}
	}
}
