// Cache equivalence tests for the serve-layer result cache. The contract:
// a cached response is byte-for-byte identical to the fresh response that
// populated it, for every algorithm, sequential and on the broadcast driver
// — the cache stores answers, it never re-derives them — a request naming
// the retired "replay" driver is a 400 that never enters the cache, and a
// stampede of identical concurrent requests performs exactly one
// underlying estimation run, with every duplicate coalesced onto it.
//
// The file lives in package adjstream_test (not adjstream) because it
// imports internal/serve, which itself imports the adjstream facade.
package adjstream_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"adjstream"
	"adjstream/internal/gen"
	"adjstream/internal/serve"
	"adjstream/internal/telemetry"
)

// newCacheTestServer builds a server over one Erdős–Rényi graph with the
// given config and returns the httptest wrapper.
func newCacheTestServer(t *testing.T, cfg serve.Config) *httptest.Server {
	t.Helper()
	g, err := gen.ErdosRenyi(150, 0.08, 3)
	if err != nil {
		t.Fatal(err)
	}
	cat := serve.NewCatalog()
	if _, err := cat.Add("er150", g); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(cat, cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// postBody POSTs body and returns status, X-Cache header, and raw body.
func postBody(t *testing.T, ts *httptest.Server, path, body string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), b
}

// wireRequest builds the JSON body for algo under the named driver shape,
// mirroring the option roster of context_equiv_test.go.
func wireRequest(algo adjstream.Algorithm, shape string) string {
	m := map[string]any{"graph": "er150", "algorithm": string(algo), "seed": 31}
	switch algo {
	case adjstream.AlgoWedgeSampler:
		m["sample_prob"] = 0.5
		m["pair_cap"] = 1 << 14
	case adjstream.AlgoExact:
		m["cycle_len"] = 3
	default:
		m["sample_size"] = 64
	}
	switch shape {
	case "broadcast", "replay":
		m["copies"] = 5
		m["parallel"] = true
		m["driver"] = shape
	}
	b, err := json.Marshal(m)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// TestCachedResponseByteIdenticalEveryAlgorithmAndDriver repeats every
// algorithm × driver-shape request and requires the cached body to equal
// the fresh body byte for byte. A parallel request without a driver shares
// the broadcast entry: the body is the same. The retired replay driver is
// rejected with 400 invalid_options on every attempt, uncached.
func TestCachedResponseByteIdenticalEveryAlgorithmAndDriver(t *testing.T) {
	ts := newCacheTestServer(t, serve.Config{})
	for _, algo := range adjstream.Algorithms() {
		for _, shape := range []string{"sequential", "broadcast", "replay"} {
			t.Run(string(algo)+"/"+shape, func(t *testing.T) {
				body := wireRequest(algo, shape)
				if shape == "replay" {
					for attempt := 0; attempt < 2; attempt++ {
						code, outcome, b := postBody(t, ts, "/v1/estimate", body)
						if code != http.StatusBadRequest || outcome != "" || !strings.Contains(string(b), `"invalid_options"`) {
							t.Fatalf("attempt %d: status %d X-Cache %q body %s, want 400 invalid_options uncached", attempt, code, outcome, b)
						}
					}
					return
				}
				code, outcome, fresh := postBody(t, ts, "/v1/estimate", body)
				if code != http.StatusOK {
					t.Fatalf("fresh: status %d (%s)", code, fresh)
				}
				if outcome != "miss" {
					t.Fatalf("fresh: X-Cache = %q, want miss", outcome)
				}
				code, outcome, cached := postBody(t, ts, "/v1/estimate", body)
				if code != http.StatusOK {
					t.Fatalf("repeat: status %d", code)
				}
				if outcome != "hit" {
					t.Fatalf("repeat: X-Cache = %q, want hit", outcome)
				}
				if !bytes.Equal(fresh, cached) {
					t.Errorf("cached response differs from fresh:\nfresh  %s\ncached %s", fresh, cached)
				}
				if shape == "broadcast" {
					unnamed := strings.Replace(body, `,"driver":"broadcast"`, "", 1)
					if unnamed == body {
						t.Fatalf("no driver field to drop in %s", body)
					}
					code, outcome, shared := postBody(t, ts, "/v1/estimate", unnamed)
					if code != http.StatusOK || outcome != "hit" || !bytes.Equal(shared, cached) {
						t.Errorf("driverless parallel request: status %d X-Cache %q body %s, want a hit on %s", code, outcome, shared, cached)
					}
				}
			})
		}
	}

	// The distinguish endpoint caches under its own kind.
	body := `{"graph":"er150","cycle_len":3,"sample_size":64,"seed":31}`
	if _, outcome, _ := postBody(t, ts, "/v1/distinguish", body); outcome != "miss" {
		t.Fatalf("distinguish fresh: X-Cache = %q, want miss", outcome)
	}
	code, outcome, cached := postBody(t, ts, "/v1/distinguish", body)
	if code != http.StatusOK || outcome != "hit" {
		t.Errorf("distinguish repeat: status %d X-Cache %q, want 200 hit", code, outcome)
	}
	var resp struct {
		Found *bool `json:"found"`
	}
	if err := json.Unmarshal(cached, &resp); err != nil || resp.Found == nil {
		t.Errorf("cached distinguish lost its found field: %s (err %v)", cached, err)
	}
}

// TestCacheStampedeSingleRun fires 32 concurrent identical requests at a
// cold cache and asserts — via the serve.cache.* telemetry counters —
// that exactly one underlying estimation ran: one miss (the leader), and
// every other request either coalesced onto the in-flight run or hit the
// entry it stored. Runs under -race in CI.
func TestCacheStampedeSingleRun(t *testing.T) {
	reg := telemetry.Enable()
	defer telemetry.Disable()
	reg.Reset()

	ts := newCacheTestServer(t, serve.Config{Workers: 4})
	const stampede = 32
	// A run heavy enough (median-of-5 over broadcast) that the duplicates
	// arrive while the leader is still streaming.
	body := `{"graph":"er150","algorithm":"twopass-triangle","sample_size":256,"copies":5,"parallel":true,"seed":9}`

	var wg sync.WaitGroup
	start := make(chan struct{})
	bodies := make([][]byte, stampede)
	errs := make([]error, stampede)
	for i := 0; i < stampede; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", strings.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			bodies[i], errs[i] = io.ReadAll(resp.Body)
		}(i)
	}
	close(start)
	wg.Wait()

	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d body differs from request 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}

	snap := reg.Snapshot()
	misses := snap["serve.cache.misses"]
	hits := snap["serve.cache.hits"]
	coalesced := snap["serve.cache.coalesced"]
	if misses != 1 {
		t.Errorf("serve.cache.misses = %v, want exactly 1 (one underlying run)", misses)
	}
	if hits+coalesced != stampede-1 {
		t.Errorf("hits (%v) + coalesced (%v) = %v, want %d", hits, coalesced, hits+coalesced, stampede-1)
	}
}
