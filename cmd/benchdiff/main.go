// Command benchdiff compares two bench2json reports and fails when a key
// benchmark regressed. It is the gate behind `make bench-gate` and the CI
// bench-gate job: the newest committed BENCH_<date>.json is the baseline,
// a fresh run of the key benchmarks is the candidate, and any ns/op
// increase beyond -threshold exits non-zero.
//
// Usage:
//
//	go test -run NONE -bench 'Broadcast|ExactKernels' ./... \
//	    | bench2json -out /tmp/new.json
//	benchdiff -new /tmp/new.json
//
// By default the baseline is the lexicographically newest BENCH_*.json in
// -dir (the date-stamped names sort chronologically). Benchmarks are
// matched after stripping Go's trailing -<GOMAXPROCS> suffix, so reports
// from machines with different core counts still compare, and a benchmark
// run with -count N is represented by the median of its N runs. Only the
// benchmarks named by -keys gate the exit status; everything present in
// both reports is shown in the delta table for context.
//
// Exit codes: 0 ok, 1 regression beyond threshold, 2 usage error, no key
// benchmark present in both reports, or a key benchmark present in the
// baseline but missing from the candidate (a gate that silently shrinks is
// a failure; retire a key by removing it from -keys).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"adjstream/internal/stats"
)

// Benchmark and Report mirror cmd/bench2json's JSON document.
type Benchmark struct {
	Name       string             `json:"name"`
	Pkg        string             `json:"pkg,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

type Report struct {
	Date       string      `json:"date"`
	GoVersion  string      `json:"go"`
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Commit     string      `json:"commit,omitempty"`
	Count      int         `json:"count"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

const defaultKeys = "BenchmarkBroadcastK32,BenchmarkExactKernels,BenchmarkEstimateColdVsCached,BenchmarkArbFourCycle,BenchmarkEstimatorCopy,BenchmarkDatasetMerge"

// stripProcs removes Go's -<GOMAXPROCS> suffix (BenchmarkFoo-8 → BenchmarkFoo)
// so reports taken on machines with different core counts line up.
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

// index maps stripped benchmark name → ns/op. Sub-benchmarks keep their
// /sub path. A name run several times in one package (-count N) gets the
// median of its runs; a name found in several packages keeps the first
// package's.
func index(rep *Report) map[string]float64 {
	pkgOf := make(map[string]string, len(rep.Benchmarks))
	runs := make(map[string][]float64, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		ns, ok := b.Metrics["ns/op"]
		if !ok {
			continue
		}
		name := stripProcs(b.Name)
		if pkg, seen := pkgOf[name]; seen && pkg != b.Pkg {
			continue
		}
		pkgOf[name] = b.Pkg
		runs[name] = append(runs[name], ns)
	}
	m := make(map[string]float64, len(runs))
	for name, ns := range runs {
		m[name] = stats.Median(ns)
	}
	return m
}

// matchesKey reports whether a stripped benchmark name belongs to key:
// either the exact benchmark or one of its sub-benchmarks (key/...).
func matchesKey(name, key string) bool {
	return name == key || strings.HasPrefix(name, key+"/")
}

func isKeyed(name string, keys []string) bool {
	for _, k := range keys {
		if matchesKey(name, k) {
			return true
		}
	}
	return false
}

func loadReport(path string) (*Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// newestBaseline returns the lexicographically last BENCH_*.json in dir;
// the BENCH_YYYY-MM-DD naming makes that the chronologically newest.
func newestBaseline(dir string) (string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	if len(paths) == 0 {
		return "", fmt.Errorf("no BENCH_*.json baseline in %s", dir)
	}
	sort.Strings(paths)
	return paths[len(paths)-1], nil
}

type row struct {
	name     string
	base, nw float64
	keyed    bool
}

func (r row) delta() float64 { return r.nw/r.base - 1 }

// geomeanDelta returns the geometric mean of the rows' new/baseline ratios,
// minus one — the balanced "overall moved by" figure (each benchmark weighs
// the same regardless of its absolute ns/op).
func geomeanDelta(rows []row) float64 {
	if len(rows) == 0 {
		return 0
	}
	var sumLog float64
	for _, r := range rows {
		sumLog += math.Log(r.nw / r.base)
	}
	return math.Exp(sumLog/float64(len(rows))) - 1
}

// diff joins the two indexes on benchmark name, sorted worst-delta first.
func diff(base, nw map[string]float64, keys []string) []row {
	rows := make([]row, 0, len(nw))
	for name, n := range nw {
		b, ok := base[name]
		if !ok || b <= 0 {
			continue
		}
		rows = append(rows, row{name: name, base: b, nw: n, keyed: isKeyed(name, keys)})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].delta() != rows[j].delta() {
			return rows[i].delta() > rows[j].delta()
		}
		return rows[i].name < rows[j].name
	})
	return rows
}

// missingKeyed returns, sorted, the key benchmarks of base that nw lacks.
func missingKeyed(base, nw map[string]float64, keys []string) []string {
	var missing []string
	for name := range base {
		if _, ok := nw[name]; !ok && isKeyed(name, keys) {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	return missing
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", ".", "directory searched for the newest BENCH_*.json baseline")
	basePath := fs.String("baseline", "", "explicit baseline report (overrides -dir)")
	newPath := fs.String("new", "", "candidate report to gate (required)")
	threshold := fs.Float64("threshold", 0.15, "max tolerated ns/op regression on key benchmarks (0.15 = +15%)")
	keysFlag := fs.String("keys", defaultKeys, "comma-separated benchmarks that gate the exit status")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *newPath == "" {
		fmt.Fprintln(stderr, "benchdiff: -new is required")
		fs.Usage()
		return 2
	}
	keys := strings.Split(*keysFlag, ",")
	for i := range keys {
		keys[i] = strings.TrimSpace(keys[i])
	}

	if *basePath == "" {
		p, err := newestBaseline(*dir)
		if err != nil {
			fmt.Fprintf(stderr, "benchdiff: %v\n", err)
			return 2
		}
		*basePath = p
	}
	baseRep, err := loadReport(*basePath)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: baseline: %v\n", err)
		return 2
	}
	newRep, err := loadReport(*newPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: candidate: %v\n", err)
		return 2
	}

	baseIdx, newIdx := index(baseRep), index(newRep)
	rows := diff(baseIdx, newIdx, keys)
	fmt.Fprintf(stdout, "baseline: %s (%s, commit %q, -count %d)\n", *basePath, baseRep.Date, baseRep.Commit, baseRep.Count)
	fmt.Fprintf(stdout, "new:      %s (%s, commit %q, -count %d)\n\n", *newPath, newRep.Date, newRep.Commit, newRep.Count)
	fmt.Fprintln(stdout, "| benchmark | baseline ns/op | new ns/op | delta | gate |")
	fmt.Fprintln(stdout, "|---|---:|---:|---:|---|")
	keyedSeen := 0
	regressed := []row{}
	for _, r := range rows {
		gate := ""
		if r.keyed {
			keyedSeen++
			gate = "key"
			if r.delta() > *threshold {
				gate = "**FAIL**"
				regressed = append(regressed, r)
			}
		}
		fmt.Fprintf(stdout, "| %s | %.1f | %.1f | %+.1f%% | %s |\n",
			r.name, r.base, r.nw, 100*r.delta(), gate)
	}
	if len(rows) > 0 {
		fmt.Fprintf(stdout, "| _geomean_ | | | %+.1f%% | |\n", 100*geomeanDelta(rows))
	}
	fmt.Fprintln(stdout)

	if keyedSeen == 0 {
		fmt.Fprintf(stderr, "benchdiff: none of the key benchmarks (%s) appear in both reports\n", *keysFlag)
		return 2
	}
	if missing := missingKeyed(baseIdx, newIdx, keys); len(missing) > 0 {
		fmt.Fprintf(stderr, "benchdiff: %d key benchmark(s) in the baseline are missing from the candidate:\n", len(missing))
		for _, name := range missing {
			fmt.Fprintf(stderr, "  %s\n", name)
		}
		return 2
	}
	if len(regressed) > 0 {
		fmt.Fprintf(stderr, "benchdiff: %d key benchmark(s) regressed beyond %+.0f%%:\n", len(regressed), 100**threshold)
		for _, r := range regressed {
			fmt.Fprintf(stderr, "  %s: %.1f → %.1f ns/op (%+.1f%%)\n", r.name, r.base, r.nw, 100*r.delta())
		}
		return 1
	}
	fmt.Fprintf(stdout, "ok: %d key benchmark(s) within %+.0f%% of baseline\n", keyedSeen, 100**threshold)
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
