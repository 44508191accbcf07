package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"adjstream/internal/serve"
)

// requestIDHeader carries the client's request id to the serve middleware.
const requestIDHeader = "X-Request-Id"

// The span layers, outermost first. Each request has at most one span per
// layer except cluster.shard, of which one run fans out several.
const (
	layerClient       = "client"
	layerServe        = "serve"
	layerClusterRun   = "cluster.run"
	layerClusterShard = "cluster.shard"
)

var spanLayers = []string{layerClient, layerServe, layerClusterRun, layerClusterShard}

// span is one timed call into a layer, recorded by the benchmark's own
// code around the layer's public entry point.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	RID    uint64 `json:"rid"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanID gives the single-instance layers of request rid fixed ids, so a
// child can name its parent before the parent's span is recorded.
func spanID(rid uint64, layer string) uint64 {
	for i, l := range spanLayers[:3] {
		if l == layer {
			return rid<<3 | uint64(i+1)
		}
	}
	return 0
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	base   time.Time
	nextID atomic.Uint64 // request ids; shard span ids count down from the top
	shard  atomic.Uint64

	mu    sync.Mutex
	spans []span
	runs  map[runKey]uint64 // the request id of each in-flight run spec
}

// runKey identifies a request across the hops where no header carries the
// request id: the serve cache runs misses under a fresh context, and the
// cluster posts shard bodies without the client's headers. Closed-loop
// workloads give every request a fresh seed, so the key is unique.
type runKey struct {
	graph string
	seed  uint64
}

func newTracer() *tracer {
	t := &tracer{base: time.Now(), runs: map[runKey]uint64{}}
	t.shard.Store(1 << 62)
	return t
}

func (t *tracer) newRequest() uint64 { return t.nextID.Add(1) }

// reset drops the spans recorded so far (setup traffic).
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = nil
	t.runs = map[runKey]uint64{}
}

// bindRun remembers which request carries spec, for the cluster hops.
func (t *tracer) bindRun(spec serve.EstimateRequest, rid uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.runs[runKey{spec.Graph, spec.EffectiveSeed()}] = rid
}

func (t *tracer) ridOf(graph string, seed uint64) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.runs[runKey{graph, seed}]
}

// record stores a span of a single-instance layer of request rid.
func (t *tracer) record(layer string, rid uint64, start, end time.Time) {
	var parent uint64
	switch layer {
	case layerServe:
		parent = spanID(rid, layerClient)
	case layerClusterRun:
		parent = spanID(rid, layerServe)
	}
	t.add(span{Name: layer, ID: spanID(rid, layer), Parent: parent, RID: rid,
		Start: start.Sub(t.base).Nanoseconds(), End: end.Sub(t.base).Nanoseconds()})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
}

// serveMiddleware times Server.Handler() for each request that carries a
// request id.
func (t *tracer) serveMiddleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid, err := strconv.ParseUint(r.Header.Get(requestIDHeader), 10, 64)
		start := time.Now()
		h.ServeHTTP(w, r)
		if err == nil {
			t.record(layerServe, rid, start, time.Now())
		}
	})
}

// remote wraps the cluster scheduler installed as serve.Config.Remote.
func (t *tracer) remote(run serve.RemoteRunner) serve.RemoteRunner {
	return func(ctx context.Context, kind string, req serve.EstimateRequest, ds *serve.Dataset) (serve.EstimateResponse, error) {
		start := time.Now()
		resp, err := run(ctx, kind, req, ds)
		t.record(layerClusterRun, t.ridOf(req.Graph, req.EffectiveSeed()), start, time.Now())
		return resp, err
	}
}

// shardMiddleware times each replica's handler for POST /v1/shard; the
// shard body names the run it belongs to.
func (t *tracer) shardMiddleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/shard" {
			h.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		var req serve.ShardRequest
		_ = json.Unmarshal(body, &req) // a bad body fails in the handler itself
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		rid := t.ridOf(req.Graph, req.EffectiveSeed())
		t.add(span{Name: layerClusterShard, ID: t.shard.Add(1), Parent: spanID(rid, layerClusterRun), RID: rid,
			Start: start.Sub(t.base).Nanoseconds(), End: end.Sub(t.base).Nanoseconds()})
	})
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its children's intervals, so
// overlapping children (concurrent shards) are not subtracted twice.
func selfTimes(spans []span) map[uint64]int64 {
	children := map[uint64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered returns the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	var clipped [][2]int64
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		if iv[1] <= end {
			continue
		}
		if iv[0] > end {
			end = iv[0]
		}
		total += iv[1] - end
		end = iv[1]
	}
	return total
}

// traceRecord is one line of the trace file: a span, a probe row, a layer
// metric, or one phase's end-to-end metrics.
type traceRecord struct {
	Type    string             `json:"type"` // "span", "probe", "layer", "e2e"
	Span    *span              `json:"span,omitempty"`
	Probe   *probeRow          `json:"probe,omitempty"`
	Phase   string             `json:"phase,omitempty"` // e2e: "plain" or "traced"
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// writeTrace writes the records as JSONL.
func writeTrace(path string, recs []traceRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readTrace reads a trace file written by writeTrace.
func readTrace(path string) ([]traceRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []traceRecord
	dec := json.NewDecoder(f)
	for {
		var r traceRecord
		if err := dec.Decode(&r); err == io.EOF {
			return recs, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
}

// layerSelf aggregates self time per layer: spans, total and per-span
// mean in milliseconds.
type layerSelf struct {
	Layer   string
	Spans   int
	TotalMS float64
	MeanMS  float64
}

func selfByLayer(spans []span) []layerSelf {
	self := selfTimes(spans)
	agg := map[string]*layerSelf{}
	for _, s := range spans {
		a := agg[s.Name]
		if a == nil {
			a = &layerSelf{Layer: s.Name}
			agg[s.Name] = a
		}
		a.Spans++
		a.TotalMS += float64(self[s.ID]) / 1e6
	}
	var out []layerSelf
	for _, l := range spanLayers {
		if a := agg[l]; a != nil {
			a.MeanMS = a.TotalMS / float64(a.Spans)
			out = append(out, *a)
		}
	}
	return out
}

// summarize prints the per-layer self time, the probe table, the layer
// metrics, and each end-to-end metric's traced-minus-plain difference.
func summarize(w io.Writer, recs []traceRecord) {
	var spans []span
	var probes []probeRow
	layer := map[string]float64{}
	e2e := map[string]map[string]float64{}
	for _, r := range recs {
		switch r.Type {
		case "span":
			spans = append(spans, *r.Span)
		case "probe":
			probes = append(probes, *r.Probe)
		case "layer":
			for k, v := range r.Metrics {
				layer[k] = v
			}
		case "e2e":
			e2e[r.Phase] = r.Metrics
		}
	}
	fmt.Fprintln(w, "per-layer self time (span minus the union of its children)")
	fmt.Fprintf(w, "  %-14s %8s %12s %10s\n", "layer", "spans", "total_ms", "mean_ms")
	for _, l := range selfByLayer(spans) {
		fmt.Fprintf(w, "  %-14s %8d %12.3f %10.4f\n", l.Layer, l.Spans, l.TotalMS, l.MeanMS)
	}
	fmt.Fprintln(w, "probe table (each layer alone on the pinned dataset, no concurrent traffic)")
	fmt.Fprintf(w, "  %-12s %-28s %-36s %14s %s\n", "layer", "metric", "shape", "value", "unit")
	for _, p := range probes {
		fmt.Fprintf(w, "  %-12s %-28s %-36s %14.4f %s\n", p.Layer, p.Metric, p.Shape, p.Value, p.Unit)
	}
	fmt.Fprintln(w, "layer metrics")
	names := make([]string, 0, len(layer))
	for k := range layer {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-44s %14.4f\n", k, layer[k])
	}
	fmt.Fprintln(w, "tracing overhead (traced minus plain, same seed, separate processes)")
	plain, traced := e2e["plain"], e2e["traced"]
	for _, m := range endToEndMetrics {
		pv, okp := plain[m.Name]
		tv, okt := traced[m.Name]
		if !okp || !okt {
			fmt.Fprintf(w, "  %-18s n/a\n", m.Name)
			continue
		}
		rel := "n/a"
		if pv != 0 {
			rel = fmt.Sprintf("%+.1f%%", 100*(tv-pv)/pv)
		}
		fmt.Fprintf(w, "  %-18s plain %12.4f  traced %12.4f  diff %+12.4f %s (%s)\n", m.Name, pv, tv, tv-pv, m.Unit, rel)
	}
}
