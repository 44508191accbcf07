// Command perfbench is the repository's benchmark. It hosts the real
// service in-process on loopback listeners, wired as adjserved and
// adjproxy wire it, drives it with one of four seeded traffic mixes from
// this same process, checks the answers, and prints the end-to-end metrics;
// a traced run (--trace 1) prints the per-layer metrics instead. Run it
// from the repository root through run.sh; README.md describes the
// workloads and the metrics.
//
//	perfbench --workload cold-estimate --seed 1 --seconds 10 --trace 0
//	perfbench summarize .bench_build/traces/cold-estimate-seed1.jsonl
//	perfbench compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"adjstream/internal/graph"
)

// metricDef is a metric's name and unit as BENCHMARK.json lists them.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// endToEndMetrics are what a user of the service sees; every plain run
// reports all of them.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"estimate_p50_ms", "ms"},
	{"estimate_p90_ms", "ms"},
	{"estimate_rps", "req/s"},
	{"ingest_p50_ms", "ms"},
	{"ingest_p90_ms", "ms"},
	{"relerr_mean", "ratio"},
	{"space_words_mean", "words"},
	{"peak_rss_mb", "MiB"},
}

// layerMetricDefs are the per-layer metrics every traced run reports.
var layerMetricDefs = []metricDef{
	{"core.ns_per_item.twopass-triangle", "ns"},
	{"core.allocs_per_item.twopass-triangle", "count"},
	{"core.ns_per_item.twopass-fourcycle", "ns"},
	{"core.allocs_per_item.twopass-fourcycle", "count"},
	{"arbitrary.ns_per_edge.arb-nearopt-fourcycle", "ns"},
	{"arbitrary.allocs_per_edge.arb-nearopt-fourcycle", "count"},
	{"sampling.offer_ns.bottomk", "ns"},
	{"sampling.allocs_per_offer.bottomk", "count"},
	{"sampling.offer_ns.fixedprob", "ns"},
	{"stream.broadcast_ms", "ms"},
	{"stream.parallel_efficiency", "ratio"},
	{"stream.pass_skew_ms", "ms"},
	{"stream.random_order_ms", "ms"},
	{"stream.sorted_build_ms", "ms"},
	{"adjstream.estimate_ms", "ms"},
	{"adjstream.arbitrary_convert_ms", "ms"},
	{"adjstream.merge_snapshots_ms", "ms"},
	{"serve.handler_p50_ms", "ms"},
	{"serve.handler_p90_ms", "ms"},
	{"serve.http_p50_ms", "ms"},
	{"serve.self_ms_mean", "ms"},
	{"serve.hit_ratio", "ratio"},
	{"serve.outcome.hit", "count"},
	{"serve.outcome.miss", "count"},
	{"serve.outcome.coalesced", "count"},
	{"serve.outcome.bypass", "count"},
	{"serve.rejected", "count"},
	{"serve.catalog_load_ms", "ms"},
	{"serve.merge_mean_ms", "ms"},
	{"serve.merge_max_ms", "ms"},
	{"serve.ingest_duplicates", "count"},
	{"serve.versions_published", "count"},
	{"graph.delta_apply_ms", "ms"},
	{"graph.truth_ms", "ms"},
	{"cluster.snapshot_bytes_per_req", "bytes"},
	{"cluster.shard_attempts_per_req", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.alloc_bytes_per_req", "bytes"},
	{"loadgen.lag_p90_ms", "ms"},
	{"loadgen.sent", "count"},
	{"loadgen.completed", "count"},
}

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is a run's full result, written under .bench_build/results.
type record struct {
	Stamp     stamp                  `json:"stamp"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	FailRatio float64                `json:"fail_ratio"`
	Problems  []string               `json:"problems,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Layer     map[string]float64     `json:"layer,omitempty"`
	Extra     map[string]float64     `json:"extra,omitempty"`
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "summarize":
			return summarizeCmd(args[1:], stdout, stderr)
		case "compare":
			return compareCmd(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+fmt.Sprint(workloadNames))
	seed := fs.Uint64("seed", 1, "seed for the graphs and the schedule")
	seconds := fs.Float64("seconds", 10, "length of the timed window")
	traceFlag := fs.Int("trace", 0, "1 = traced run: replay with spans, probe each layer, print per-layer metrics")
	root := fs.String("root", ".", "repository root; the benchmark writes only under ROOT/.bench_build")
	resultPath := fs.String("result", "", "also write the result record to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || !slices.Contains(workloadNames, *workload) || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "usage: perfbench --workload %v --seed N --seconds S --trace 0|1\n", workloadNames)
		return 2
	}
	work := filepath.Join(*root, ".bench_build")
	for _, d := range []string{"results", "traces"} {
		if err := os.MkdirAll(filepath.Join(work, d), 0o755); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	p, graphs, err := newPlan(*workload, *seed, *seconds)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	st := newStamp(*root, *workload, *seed, *seconds, *traceFlag == 1)
	if *traceFlag == 1 {
		return tracedRun(p, graphs, work, st, stdout, stderr)
	}
	rep, err := runOnce(p, graphs, work, nil)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rec := newRecord(st, rep)
	path := *resultPath
	if path == "" {
		path = filepath.Join(work, "results", fmt.Sprintf("%s-seed%d-plain.json", p.Workload, p.Seed))
	}
	if err := writeJSON(path, rec); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printRecord(stdout, rec)
	return finish(stdout, rec, endToEndMetrics, func(name string) (float64, bool) {
		v, ok := rec.Metrics[name]
		return v.Value, ok
	})
}

func newRecord(st stamp, rep *report) record {
	st.Samples = rep.samples
	rec := record{Stamp: st, Attempted: rep.attempted, Failed: rep.failed, Problems: rep.problems,
		Metrics: map[string]metricValue{}, Layer: rep.layer, Extra: rep.extra}
	for _, m := range endToEndMetrics {
		if v, ok := rep.metrics[m.Name]; ok {
			rec.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		}
	}
	rec.FailRatio = float64(rec.Failed) / float64(max(rec.Attempted, 1))
	rec.Correct = rec.Failed == 0
	return rec
}

// printRecord prints the stamp, every end-to-end metric by name with its
// unit, and the failure summary.
func printRecord(w io.Writer, rec record) {
	b, _ := json.Marshal(rec.Stamp)
	fmt.Fprintf(w, "stamp %s\n", b)
	for _, m := range endToEndMetrics {
		fmt.Fprintf(w, "%-18s %14.6g %s\n", m.Name, rec.Metrics[m.Name].Value, m.Unit)
	}
	fmt.Fprintf(w, "%-18s %14.6g ratio (%d failed of %d attempted)\n", "fail_ratio", rec.FailRatio, rec.Failed, rec.Attempted)
	for _, p := range rec.Problems {
		fmt.Fprintln(w, "failure:", p)
	}
}

// finish prints the result line with the named metrics and returns the
// exit code: non-zero when any check failed.
func finish(w io.Writer, rec record, defs []metricDef, get func(string) (float64, bool)) int {
	out := resultLine{Correct: rec.Correct, Attempted: max(rec.Attempted, 1), Failed: rec.Failed, Metrics: map[string]metricValue{}}
	for _, m := range defs {
		v, ok := get(m.Name)
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			// A metric the run could not measure fails the run; the
			// line still parses.
			out.Correct = false
			out.Failed++
			v = math.MaxFloat64
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(w, err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", b)
	if !out.Correct {
		return 1
	}
	return 0
}

// tracedRun is --trace 1: a plain run of the same seed in a child process
// (its own memory and GC state), then the traced replay and the probe
// phase in this one. It prints the trace summary and the per-layer
// metrics, and writes the spans as JSONL under .bench_build/traces.
func tracedRun(p *plan, graphs map[string]*graph.Graph, work string, st stamp, stdout, stderr io.Writer) int {
	plainPath := filepath.Join(work, "results", fmt.Sprintf("%s-seed%d-plain-for-trace.json", p.Workload, p.Seed))
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "--workload", p.Workload, "--seed", strconv.FormatUint(p.Seed, 10),
		"--seconds", strconv.FormatFloat(p.Seconds, 'g', -1, 64), "--trace", "0",
		"-root", filepath.Dir(work), "-result", plainPath)
	cmd.Stdout, cmd.Stderr = stderr, stderr
	childErr := cmd.Run()
	var plain record
	if err := readJSON(plainPath, &plain); err != nil {
		fmt.Fprintln(stderr, "perfbench: plain run:", errors.Join(childErr, err))
		return 1
	}

	tr := newTracer()
	rep, err := runOnce(p, graphs, work, tr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rec := newRecord(st, rep)
	if !plain.Correct {
		rec.Correct = false
		rec.Failed += plain.Failed
		rec.Problems = append(rec.Problems, plain.Problems...)
	}
	var recs []traceRecord
	for i := range rep.spans {
		recs = append(recs, traceRecord{Type: "span", Span: &rep.spans[i]})
	}
	for i := range rep.probes {
		recs = append(recs, traceRecord{Type: "probe", Probe: &rep.probes[i]})
	}
	layer := map[string]float64{}
	for k, v := range rep.layer {
		layer[k] = v
	}
	for k, v := range rep.extra {
		layer[k] = v
	}
	recs = append(recs, traceRecord{Type: "layer", Metrics: layer},
		traceRecord{Type: "e2e", Phase: "plain", Metrics: values(plain.Metrics)},
		traceRecord{Type: "e2e", Phase: "traced", Metrics: values(rec.Metrics)})
	tracePath := filepath.Join(work, "traces", fmt.Sprintf("%s-seed%d.jsonl", p.Workload, p.Seed))
	if err := writeTrace(tracePath, recs); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := writeJSON(filepath.Join(work, "results", fmt.Sprintf("%s-seed%d-trace.json", p.Workload, p.Seed)), rec); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b, _ := json.Marshal(rec.Stamp)
	fmt.Fprintf(stdout, "stamp %s\ntrace %s\n", b, tracePath)
	summarize(stdout, recs)
	for _, p := range rec.Problems {
		fmt.Fprintln(stdout, "failure:", p)
	}
	return finish(stdout, rec, layerMetricDefs, func(name string) (float64, bool) {
		v, ok := rep.layer[name]
		return v, ok
	})
}

func values(ms map[string]metricValue) map[string]float64 {
	out := make(map[string]float64, len(ms))
	for k, v := range ms {
		out[k] = v.Value
	}
	return out
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// summarizeCmd prints the summary of a trace file.
func summarizeCmd(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(stderr, "usage: perfbench summarize TRACE.jsonl")
		return 2
	}
	recs, err := readTrace(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	summarize(stdout, recs)
	return 0
}

// compareCmd diffs two result records. Records from different CPU models
// or GOMAXPROCS are flagged, not diffed: exit 3.
func compareCmd(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare BASE.json NEW.json")
		return 2
	}
	var a, b record
	for i, r := range []*record{&a, &b} {
		if err := readJSON(args[i], r); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	if a.Stamp.CPUModel != b.Stamp.CPUModel || a.Stamp.GOMAXPROCS != b.Stamp.GOMAXPROCS {
		fmt.Fprintf(stdout, "not comparable: cpu %q gomaxprocs %d vs cpu %q gomaxprocs %d\n",
			a.Stamp.CPUModel, a.Stamp.GOMAXPROCS, b.Stamp.CPUModel, b.Stamp.GOMAXPROCS)
		return 3
	}
	if a.Stamp.Workload != b.Stamp.Workload {
		fmt.Fprintf(stdout, "not comparable: workload %s vs %s\n", a.Stamp.Workload, b.Stamp.Workload)
		return 3
	}
	fmt.Fprintf(stdout, "%s: %s (seed %d) vs %s (seed %d)\n", a.Stamp.Workload,
		a.Stamp.Commit, a.Stamp.Seed, b.Stamp.Commit, b.Stamp.Seed)
	for _, m := range endToEndMetrics {
		av, bv := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
		rel := "n/a"
		if av != 0 {
			rel = fmt.Sprintf("%+.1f%%", 100*(bv-av)/av)
		}
		fmt.Fprintf(stdout, "  %-18s %14.6g %14.6g %s %s\n", m.Name, av, bv, m.Unit, rel)
	}
	return 0
}
