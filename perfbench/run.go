package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"adjstream"
	"adjstream/internal/graph"
	"adjstream/internal/serve"
	"adjstream/internal/telemetry"
)

// setupRepeats is how many times a run boots the fleet; setup_s is the
// median, and the last fleet serves the window.
const setupRepeats = 5

// checkSample is how many served closed-loop answers the checker re-runs.
const checkSample = 8

// report is what one run measured.
type report struct {
	metrics   map[string]float64 // end-to-end
	layer     map[string]float64 // per-layer (traced runs)
	extra     map[string]float64 // per-layer values only some workloads have
	samples   map[string]int
	probes    []probeRow
	spans     []span
	attempted int
	failed    int
	problems  []string
}

// fail records a failure the checker found.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// run is one workload run in progress.
type run struct {
	p   *plan
	f   *fleet
	c   *client
	rep *report
	ctx context.Context
}

// runOnce boots the fleet setupRepeats times, drives the last one through
// the timed window, checks every answer it can, and measures. With tr set
// it also records spans and runs the probe phase.
func runOnce(p *plan, graphs map[string]*graph.Graph, work string, tr *tracer) (*report, error) {
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	gdir := filepath.Join(dir, "graphs")
	if err := writeGraphs(gdir, graphs); err != nil {
		return nil, err
	}
	if tr != nil {
		telemetry.Enable()
	}
	var f *fleet
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if f != nil {
			f.stop()
		}
		if f, err = bootFleet(p, gdir, tr); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, f.setup.Seconds())
	}
	defer f.stop()
	rep := &report{metrics: map[string]float64{}, layer: map[string]float64{}, extra: map[string]float64{}, samples: map[string]int{}}
	rep.metrics["setup_s"] = median(setups)
	if tr != nil {
		tr.reset()
		telemetry.Global().Reset()
	}
	c := newClient(f.front.url, conns(), tr)
	defer c.close()
	r := &run{p: p, f: f, c: c, rep: rep, ctx: context.Background()}

	var verify func(int, answer) string
	if p.Workload == hotMix {
		verify = func(i int, a answer) string {
			spec := p.hotSpec(i)
			if msg := sameAnswer(a, resultOf(f.primed[spec]), f.pinned[p.Specs[spec].Spec.Graph]); msg != "" {
				return "differs from the primed answer: " + msg
			}
			return ""
		}
	}
	rt0 := readRuntime()
	ops, elapsed := runLoad(c, p, time.Duration(p.Seconds*float64(time.Second)), verify)
	rt1 := readRuntime()
	var reads, writes []*op
	for _, o := range ops {
		rep.attempted++
		if o.write {
			writes = append(writes, o)
		} else {
			reads = append(reads, o)
		}
	}
	if tr != nil {
		rep.spans = tr.snapshot()
	}

	var quality []qualityItem
	var ingest []*op
	var targets []probeTarget
	switch {
	case p.Workload == hotMix:
		quality, targets, err = r.checkHot(reads)
	case p.closed():
		quality, targets, err = r.checkClosed(reads)
	default:
		quality, targets, err = r.checkChurn(reads, writes)
		ingest = writes
	}
	if err != nil {
		return nil, err
	}
	var probeAcks []*op
	if len(p.Probe) > 0 {
		// Workloads without a live writer: the ingest probe, after every
		// read check, on a quiet service.
		probeAcks = r.sendBatches(p.Probe)
		r.verifyGraph(p.Graphs[0].Name, p.Probe)
		ingest = probeAcks
	}
	for _, o := range append(ops, probeAcks...) {
		if o.failed() {
			rep.fail("%s", describe(o))
		}
	}

	r.endToEnd(reads, ingest, elapsed, quality)
	if tr != nil {
		r.layerMetrics(ops, rt0, rt1)
		batches := p.Writes
		if len(p.Probe) > 0 {
			batches = p.Probe
		}
		targets = withPaperShapes(targets, f.pinned[p.Graphs[0].Name], p.Seed)
		if err := r.probe(targets, batches, append(writes, probeAcks...)); err != nil {
			rep.fail("%v", err)
		}
	}
	return rep, nil
}

// conns is the load generator's connection budget: loadConns, capped at
// nproc.
func conns() int { return min(loadConns, runtime.NumCPU()) }

// describe summarizes a failed operation for the report.
func describe(o *op) string {
	kind := "read"
	if o.write {
		kind = "write"
	}
	if err := o.err(); err != nil {
		return fmt.Sprintf("%s %d: %v", kind, o.index, err)
	}
	return fmt.Sprintf("%s %d: %s", kind, o.index, o.x.wrong)
}

// qualityItem is one answer behind relerr_mean and space_words_mean.
type qualityItem struct {
	relerr float64
	space  int64
}

// cycleLen is the cycle length a read estimates.
func cycleLen(r readReq) int {
	if r.Kind == "distinguish" {
		if r.Spec.CycleLen == 0 {
			return 3
		}
		return r.Spec.CycleLen
	}
	if strings.Contains(r.Spec.Algorithm, "fourcycle") {
		return 4
	}
	return 3
}

func (r *run) quality(req readReq, resp answer) qualityItem {
	want := r.f.truth[req.Spec.Graph].forCycleLen(cycleLen(req))
	return qualityItem{relerr: math.Abs(resp.Estimate-want) / want, space: resp.SpaceWords}
}

// reference reruns a read on ds and compares it with the served answer.
func (r *run) reference(ds *serve.Dataset, req readReq, got answer) string {
	want, err := estimateOn(r.ctx, ds, req)
	if err != nil {
		return fmt.Sprintf("reference run: %v", err)
	}
	return sameAnswer(got, want, ds)
}

// checkClosed checks a closed-loop window: every request a cache miss, a
// seeded sample re-run bit for bit, and the quality prefix (entries the
// window did not reach are computed after it, so the prefix is the same
// in every run of a seed).
func (r *run) checkClosed(reads []*op) ([]qualityItem, []probeTarget, error) {
	byIndex := map[int]*op{}
	for _, o := range reads {
		byIndex[int(o.index)] = o
		if o.err() == nil && o.outcome() != serve.CacheMiss {
			o.setWrong(fmt.Sprintf("X-Cache %q, want miss", o.outcome()))
		}
	}
	rng := newRNG(derive(r.p.Seed, "check", 0))
	sample := map[int]bool{}
	for len(sample) < checkSample {
		sample[rng.IntN(qualityPrefix)] = true
	}
	var items []qualityItem
	for i := 0; i < qualityPrefix; i++ {
		req := r.p.closedRead(i)
		ds := r.f.pinned[req.Spec.Graph]
		o := byIndex[i]
		if o == nil || o.failed() {
			res, err := estimateOn(r.ctx, ds, req)
			if err != nil {
				return nil, nil, err
			}
			items = append(items, r.quality(req, answer{Estimate: res.Estimate, SpaceWords: res.SpaceWords}))
			continue
		}
		if sample[i] {
			if msg := r.reference(ds, req, *o.answer()); msg != "" {
				o.setWrong(msg)
			}
		}
		items = append(items, r.quality(req, *o.answer()))
	}
	var targets []probeTarget
	for i := range r.p.Rotation {
		req := r.p.closedRead(i)
		if o := byIndex[i]; o != nil && !o.failed() && !hasShape(targets, req.Shape) {
			targets = append(targets, probeTarget{req: req, ds: r.f.pinned[req.Spec.Graph], served: o.answer()})
		}
	}
	return items, targets, nil
}

func hasShape(ts []probeTarget, label string) bool {
	for _, t := range ts {
		if t.req.Shape == label {
			return true
		}
	}
	return false
}

// withPaperShapes adds, for each of the paper's estimators the workload
// never sends, its cold-estimate shape on ds, unserved, so that every
// traced run reports the core and arbitrary layers for all three.
func withPaperShapes(ts []probeTarget, ds *serve.Dataset, seed uint64) []probeTarget {
	for i, s := range []shape{shapeTri, shapeFC, shapeNearOpt} {
		sent := false
		for _, t := range ts {
			sent = sent || t.req.Spec.Algorithm == s.Spec.Algorithm
		}
		if !sent {
			ts = append(ts, probeTarget{req: s.at(ds.Name(), derive(seed, "probe-shape", uint64(i))), ds: ds})
		}
	}
	return ts
}

// checkHot checks the hot-mix window: at least 99% hits and every spec
// re-run bit for bit (each answer was compared with its primed answer as
// it arrived). The quality set is the pool's primed answers plus the
// further draws of the same mix, computed after the window.
func (r *run) checkHot(reads []*op) ([]qualityItem, []probeTarget, error) {
	hits := 0
	for _, o := range reads {
		if o.err() == nil && o.outcome() == serve.CacheHit {
			hits++
		}
	}
	if float64(hits) < 0.99*float64(len(reads)) {
		r.rep.fail("hot-mix: %d of %d reads were cache hits, want at least 99%%", hits, len(reads))
	}
	var items []qualityItem
	var targets []probeTarget
	for i, req := range r.p.Specs {
		ds := r.f.pinned[req.Spec.Graph]
		if msg := r.reference(ds, req, r.f.primed[i]); msg != "" {
			r.rep.fail("hot-mix spec %d: %s", i, msg)
		}
		items = append(items, r.quality(req, r.f.primed[i]))
		if !hasShape(targets, req.Shape) {
			ans := r.f.primed[i]
			targets = append(targets, probeTarget{req: req, ds: ds, served: &ans})
		}
	}
	for _, req := range r.p.HotQuality {
		res, err := estimateOn(r.ctx, r.f.pinned[req.Spec.Graph], req)
		if err != nil {
			return nil, nil, err
		}
		items = append(items, r.quality(req, answer{Estimate: res.Estimate, SpaceWords: res.SpaceWords}))
	}
	return items, targets, nil
}

// resultOf is the part of a response the reference comparison reads.
func resultOf(resp answer) adjstream.Result {
	return adjstream.Result{Estimate: resp.Estimate, SpaceWords: resp.SpaceWords}
}

// checkChurn checks the ingest-churn window: batch acks, the final graph
// against the benchmark's op log, reader answers at retained versions,
// and each reader spec once more on the final version.
func (r *run) checkChurn(reads, writes []*op) ([]qualityItem, []probeTarget, error) {
	r.checkAcks(writes, r.p.Writes)
	name := r.p.Graphs[0].Name
	r.verifyGraph(name, r.p.Writes)

	md, _ := r.f.front.cat.GetMutable(name)
	checked := 0
	for _, o := range reads {
		if o.failed() || checked >= checkSample {
			continue
		}
		ds, err := md.At(o.answer().Version, o.answer().Fingerprint)
		if err != nil {
			continue // no longer retained
		}
		checked++
		if msg := r.reference(ds, r.p.Specs[r.p.Reads[o.index].Spec], *o.answer()); msg != "" {
			o.setWrong(msg)
		}
	}

	final := md.Current()
	var targets []probeTarget
	for _, req := range r.p.Specs {
		res := r.c.read(r.ctx, req)
		r.rep.attempted++
		if res.err != nil {
			r.rep.fail("final read %s: %v", req.Shape, res.err)
			continue
		}
		if msg := r.reference(final, req, res.ans); msg != "" {
			r.rep.fail("final read %s: %s", req.Shape, msg)
			continue
		}
		ans := res.ans
		targets = append(targets, probeTarget{req: req, ds: final, served: &ans})
	}

	// Quality: the reader's shapes with fresh seeds on the loaded graph,
	// a seed-determined prefix like the other workloads'.
	ds := r.f.pinned[name]
	var items []qualityItem
	for i := 0; i < qualityPrefix; i++ {
		base := r.p.Specs[i%len(r.p.Specs)]
		req := shape{Label: base.Shape, Kind: base.Kind, Spec: base.Spec}.at(name, derive(r.p.Seed, "quality", uint64(i)))
		res, err := estimateOn(r.ctx, ds, req)
		if err != nil {
			return nil, nil, err
		}
		items = append(items, r.quality(req, answer{Estimate: res.Estimate, SpaceWords: res.SpaceWords}))
	}
	return items, targets, nil
}

// checkAcks verifies the batch acks: a fresh batch applies all its ops and
// every mergeEvery-th publishes a version; a resend is replayed as a
// duplicate.
func (r *run) checkAcks(acks []*op, batches []edgeBatch) {
	fresh := 0
	for _, o := range acks {
		if o.err() != nil {
			continue
		}
		b, a := batches[o.index], *o.ack()
		switch {
		case b.Resend && !a.Duplicate:
			o.setWrong("resent batch not reported as a duplicate")
		case b.Resend:
		case a.Duplicate:
			o.setWrong("fresh batch reported as a duplicate")
		case a.Applied != len(b.Req.Add)+len(b.Req.Remove):
			o.setWrong(fmt.Sprintf("applied %d ops, sent %d", a.Applied, len(b.Req.Add)+len(b.Req.Remove)))
		default:
			fresh++
			if a.Merged != (fresh%mergeEvery == 0) {
				o.setWrong(fmt.Sprintf("fresh batch %d: merged=%v", fresh, a.Merged))
			}
		}
	}
}

// sendBatches sends the ingest probe back to back on one connection.
func (r *run) sendBatches(batches []edgeBatch) []*op {
	start := time.Now()
	acks := make([]*op, len(batches))
	for i, b := range batches {
		acks[i] = &op{write: true, index: int32(i)}
		acks[i].set(r.c.write(r.ctx, r.p.Graphs[0].Name, b.Req), start, nil)
		r.rep.attempted++
	}
	r.checkAcks(acks, batches)
	return acks
}

// verifyGraph flushes the pending delta and checks that the served graph,
// on the front and on every replica, has the fingerprint of the graph
// rebuilt with graph.FromEdges from the benchmark's op log.
func (r *run) verifyGraph(name string, log []edgeBatch) {
	res := r.c.write(r.ctx, name, serve.EdgeBatchRequest{BatchID: "flush", Flush: true})
	r.rep.attempted++
	if res.err != nil {
		r.rep.fail("flush: %v", res.err)
		return
	}
	g, err := graph.FromEdges(replayOps(r.f.pinned[name].Graph(), log))
	if err != nil {
		r.rep.fail("rebuilding from the op log: %v", err)
		return
	}
	want, err := fingerprintOf(g)
	if err != nil {
		r.rep.fail("%v", err)
		return
	}
	for _, n := range append([]*node{r.f.front}, r.f.replicas...) {
		// One connection at a time: the load client's idle ones close
		// first.
		r.c.close()
		var d serve.GraphDetail
		nc := newClient(n.url, 1, nil)
		got := nc.do(r.ctx, "GET", "/v1/graphs/"+name, nil, &d, nil)
		nc.close()
		r.rep.attempted++
		switch {
		case got.err != nil:
			r.rep.fail("GET graph: %v", got.err)
		case d.Fingerprint != want:
			r.rep.fail("%s: final fingerprint %s, op log rebuilds %s", n.url, d.Fingerprint, want)
		}
	}
}

// endToEnd computes the end-to-end metrics.
func (r *run) endToEnd(reads, ingest []*op, elapsed time.Duration, quality []qualityItem) {
	rep := r.rep
	pct := func(name string, samples []float64, q float64) {
		v, err := windowedPercentile(samples, q)
		if err != nil {
			rep.fail("%s: %v", name, err)
		}
		rep.metrics[name] = v
	}
	lat, ok := latencies(reads, r.p.closed())
	pct("estimate_p50_ms", lat, 0.5)
	pct("estimate_p90_ms", lat, 0.9)
	rep.samples["estimate"] = len(lat)
	rep.metrics["estimate_rps"] = float64(ok) / elapsed.Seconds()

	// The ingest probe is a closed loop; the writer an open one.
	lat, _ = latencies(ingest, len(r.p.Writes) == 0)
	pct("ingest_p50_ms", lat, 0.5)
	pct("ingest_p90_ms", lat, 0.9)
	rep.samples["ingest"] = len(lat)

	var rel, sp []float64
	for _, q := range quality {
		rel = append(rel, q.relerr)
		sp = append(sp, float64(q.space))
	}
	rep.metrics["relerr_mean"] = mean(rel)
	rep.metrics["space_words_mean"] = mean(sp)
	rep.samples["quality"] = len(quality)
	if rss, err := peakRSSMiB(); err != nil {
		rep.fail("peak_rss_mb: %v", err)
	} else {
		rep.metrics["peak_rss_mb"] = rss
	}
}

// latencies returns the operations' latencies in ms in send order, NaN for
// each failure, and the number that succeeded.
func latencies(ops []*op, closed bool) ([]float64, int) {
	sorted := append([]*op(nil), ops...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].sent < sorted[j].sent })
	lat := make([]float64, len(sorted))
	ok := 0
	for i, o := range sorted {
		if o.failed() {
			lat[i] = math.NaN()
			continue
		}
		lat[i] = ms(o.latency(closed))
		ok++
	}
	return lat, ok
}

// layerMetrics derives the per-layer metrics of the load phase from the
// spans, the response headers, the service's counters and the runtime.
func (r *run) layerMetrics(ops []*op, rt0, rt1 runtimeSample) {
	rep, closed := r.rep, r.p.closed()
	byRID := map[uint64]map[string]span{}
	for _, s := range rep.spans {
		if byRID[s.RID] == nil {
			byRID[s.RID] = map[string]span{}
		}
		if s.Name != layerClusterShard {
			byRID[s.RID][s.Name] = s
		}
	}
	var handler, httpOver, lag []float64
	seen := map[serve.CacheOutcome]int{}
	reads, completed := 0, 0
	for _, o := range ops {
		lag = append(lag, ms(o.lag(closed)))
		if o.status != 0 {
			completed++
		}
		if o.write || o.err() != nil {
			continue
		}
		reads++
		seen[o.outcome()]++
		if sp, ok := byRID[o.rid]; ok {
			if s, ok := sp[layerServe]; ok {
				handler = append(handler, float64(s.End-s.Start)/1e6)
				if c, ok := sp[layerClient]; ok {
					httpOver = append(httpOver, float64((c.End-c.Start)-(s.End-s.Start))/1e6)
				}
			}
		}
	}
	set := func(name string, v float64, err error) {
		if err != nil {
			rep.fail("%s: %v", name, err)
		}
		rep.layer[name] = v
	}
	v, err := percentile(handler, 0, 0.5)
	set("serve.handler_p50_ms", v, err)
	v, err = percentile(handler, 0, 0.9)
	set("serve.handler_p90_ms", v, err)
	v, err = percentile(httpOver, 0, 0.5)
	set("serve.http_p50_ms", v, err)
	v, err = percentile(lag, 0, 0.9)
	set("loadgen.lag_p90_ms", v, err)
	rep.samples["serve.handler"] = len(handler)
	rep.samples["loadgen.lag"] = len(lag)
	for _, oc := range []serve.CacheOutcome{serve.CacheHit, serve.CacheMiss, serve.CacheCoalesced, serve.CacheBypass} {
		rep.layer["serve.outcome."+string(oc)] = float64(seen[oc])
	}
	rep.layer["serve.hit_ratio"] = float64(seen[serve.CacheHit]) / float64(max(reads, 1))
	rejected := r.f.front.srv.Pool().Rejected()
	for _, n := range r.f.replicas {
		rejected += n.srv.Pool().Rejected()
	}
	rep.layer["serve.rejected"] = float64(rejected)
	rep.layer["serve.catalog_load_ms"] = ms(r.f.front.loadDir)
	rep.layer["graph.truth_ms"] = ms(r.f.truthDur)
	rep.layer["loadgen.sent"] = float64(len(ops))
	rep.layer["loadgen.completed"] = float64(completed)
	rep.layer["runtime.gc_cpu_fraction"] = (rt1.gcCPU - rt0.gcCPU) / (rt1.totalCPU - rt0.totalCPU)
	rep.layer["runtime.alloc_bytes_per_req"] = (rt1.allocBytes - rt0.allocBytes) / float64(max(completed, 1))
	for _, l := range selfByLayer(rep.spans) {
		if l.Layer == layerServe {
			rep.layer["serve.self_ms_mean"] = l.MeanMS
		}
	}

	// The service's own counters: these include the ingest probe and, in
	// cluster-proxy, every node in the process.
	snap := telemetry.Global().Snapshot()
	rep.layer["serve.merge_mean_ms"] = snap["serve.ingest.merge_latency_ns.mean"] / 1e6
	rep.layer["serve.merge_max_ms"] = snap["serve.ingest.merge_latency_ns.max"] / 1e6
	rep.layer["serve.ingest_duplicates"] = snap["serve.ingest.duplicates"]
	if ds, ok := r.f.front.cat.Get(r.p.Graphs[0].Name); ok {
		rep.layer["serve.versions_published"] = float64(ds.Version() - 1)
	}
	rep.layer["cluster.shard_attempts_per_req"] = 0
	if n := snap["cluster.requests"]; n > 0 {
		rep.layer["cluster.shard_attempts_per_req"] = snap["cluster.shard.requests"] / n
	}
	r.clusterSpans()
}

// clusterSpans derives the cluster-proxy span metrics: the run, each
// shard, the fan-out overhead (run minus slowest shard) and the shard skew
// (slowest minus fastest).
func (r *run) clusterSpans() {
	shards := map[uint64][]span{}
	var runs []span
	for _, s := range r.rep.spans {
		switch s.Name {
		case layerClusterShard:
			shards[s.Parent] = append(shards[s.Parent], s)
		case layerClusterRun:
			runs = append(runs, s)
		}
	}
	if len(runs) == 0 {
		return
	}
	var run, shard, over, skew []float64
	for _, rs := range runs {
		run = append(run, float64(rs.End-rs.Start)/1e6)
		ss := shards[rs.ID]
		if len(ss) == 0 {
			continue
		}
		durs := make([]float64, len(ss))
		for i, s := range ss {
			durs[i] = float64(s.End-s.Start) / 1e6
			shard = append(shard, durs[i])
		}
		sort.Float64s(durs)
		over = append(over, run[len(run)-1]-durs[len(durs)-1])
		skew = append(skew, durs[len(durs)-1]-durs[0])
	}
	r.rep.extra["cluster.run_p50_ms"] = median(run)
	r.rep.extra["cluster.shard_p50_ms"] = median(shard)
	r.rep.extra["cluster.fanout_overhead_ms"] = median(over)
	r.rep.extra["cluster.shard_skew_ms"] = median(skew)
}

// probe runs the probe phase: every target shape down the stack, then the
// per-graph layers on the workload's first graph with its recorded
// batches.
func (r *run) probe(targets []probeTarget, batches []edgeBatch, acks []*op) error {
	for _, t := range targets {
		rows, err := probeShape(r.ctx, t)
		if err != nil {
			return err
		}
		r.rep.probes = append(r.rep.probes, rows...)
	}
	wantFP := ""
	for _, o := range acks {
		if o.err() == nil && o.ack().Merged && o.ack().GraphVersion == 2 {
			wantFP = o.ack().GraphFingerprint
		}
	}
	name := r.p.Graphs[0].Name
	rows, err := probeGraph(r.f.pinned[name].Graph(), derive(r.p.Seed, "probe-order", 0), batches, wantFP)
	if err != nil {
		return err
	}
	r.rep.probes = append(r.rep.probes, rows...)
	// The layer metrics take each probe metric from the first shape that
	// reports it: the workload's first (twopass-triangle) shape for the
	// shape-level ones.
	for _, p := range r.rep.probes {
		if _, ok := r.rep.layer[p.Metric]; !ok {
			r.rep.layer[p.Metric] = p.Value
		}
	}
	return nil
}
