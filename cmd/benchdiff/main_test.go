package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeReport(t *testing.T, path string, date string, benches map[string]float64) {
	t.Helper()
	rep := Report{Date: date}
	for name, ns := range benches {
		rep.Benchmarks = append(rep.Benchmarks, Benchmark{
			Name:       name,
			Iterations: 100,
			Metrics:    map[string]float64{"ns/op": ns},
		})
	}
	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestStripProcs(t *testing.T) {
	cases := map[string]string{
		"BenchmarkFoo-8":          "BenchmarkFoo",
		"BenchmarkFoo-16":         "BenchmarkFoo",
		"BenchmarkFoo":            "BenchmarkFoo",
		"BenchmarkFoo/sub=3-8":    "BenchmarkFoo/sub=3",
		"BenchmarkFoo/k-means":    "BenchmarkFoo/k-means",
		"BenchmarkBroadcastK32-4": "BenchmarkBroadcastK32",
	}
	for in, want := range cases {
		if got := stripProcs(in); got != want {
			t.Errorf("stripProcs(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRunOKWithinThreshold(t *testing.T) {
	dir := t.TempDir()
	writeReport(t, filepath.Join(dir, "BENCH_2026-01-01.json"), "old", map[string]float64{
		"BenchmarkBroadcastK32-8":              1000,
		"BenchmarkExactKernels/oracle-8":       500,
		"BenchmarkEstimateColdVsCached/cold-8": 200,
		"BenchmarkUnrelated-8":                 50,
	})
	newPath := filepath.Join(dir, "new.json")
	writeReport(t, newPath, "new", map[string]float64{
		"BenchmarkBroadcastK32-8":              1100, // +10%, under 15%
		"BenchmarkExactKernels/oracle-8":       490,
		"BenchmarkEstimateColdVsCached/cold-8": 205,
		"BenchmarkUnrelated-8":                 500, // +900% but not a key
	})
	var out, errw bytes.Buffer
	if code := run([]string{"-dir", dir, "-new", newPath}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "ok: 3 key benchmark(s)") {
		t.Fatalf("output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "| BenchmarkUnrelated |") {
		t.Fatalf("non-key benchmark missing from table:\n%s", out.String())
	}
}

// TestRunMedianOfCount gates on the median of a benchmark's -count runs,
// so one outlying run, here the first, neither fails the gate nor sets the
// baseline. A name that two packages report keeps the first package's
// runs.
func TestRunMedianOfCount(t *testing.T) {
	dir := t.TempDir()
	write := func(path string, runs []Benchmark) {
		buf, err := json.Marshal(Report{Date: "d", Count: 3, Benchmarks: runs})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	bench := func(pkg, name string, ns float64) Benchmark {
		return Benchmark{Name: name, Pkg: pkg, Iterations: 100, Metrics: map[string]float64{"ns/op": ns}}
	}
	write(filepath.Join(dir, "BENCH_2026-01-01.json"), []Benchmark{
		bench("adjstream", "BenchmarkEstimatorCopy/twopass-triangle-2", 400),
		bench("adjstream", "BenchmarkEstimatorCopy/twopass-triangle-2", 1000),
		bench("adjstream", "BenchmarkEstimatorCopy/twopass-triangle-2", 1010),
		bench("adjstream/internal/stream", "BenchmarkBroadcastK32-2", 1000),
		bench("adjstream/internal/graph", "BenchmarkBroadcastK32-2", 50),
	})
	newPath := filepath.Join(dir, "new.json")
	write(newPath, []Benchmark{
		bench("adjstream", "BenchmarkEstimatorCopy/twopass-triangle-2", 5000),
		bench("adjstream", "BenchmarkEstimatorCopy/twopass-triangle-2", 1020),
		bench("adjstream", "BenchmarkEstimatorCopy/twopass-triangle-2", 990),
		bench("adjstream/internal/stream", "BenchmarkBroadcastK32-2", 1050),
		bench("adjstream/internal/graph", "BenchmarkBroadcastK32-2", 5000),
	})
	var out, errw bytes.Buffer
	if code := run([]string{"-dir", dir, "-new", newPath}, &out, &errw); code != 0 {
		t.Fatalf("exit %d, want 0: %s\n%s", code, errw.String(), out.String())
	}
	for _, row := range []string{
		"| BenchmarkEstimatorCopy/twopass-triangle | 1000.0 | 1020.0 |",
		"| BenchmarkBroadcastK32 | 1000.0 | 1050.0 |",
	} {
		if !strings.Contains(out.String(), row) {
			t.Fatalf("want row %q in:\n%s", row, out.String())
		}
	}
}

func TestRunRegressionFails(t *testing.T) {
	dir := t.TempDir()
	writeReport(t, filepath.Join(dir, "BENCH_2026-01-01.json"), "old", map[string]float64{
		"BenchmarkBroadcastK32-8": 1000,
	})
	newPath := filepath.Join(dir, "new.json")
	writeReport(t, newPath, "new", map[string]float64{
		"BenchmarkBroadcastK32-8": 1300, // +30%
	})
	var out, errw bytes.Buffer
	if code := run([]string{"-dir", dir, "-new", newPath}, &out, &errw); code != 1 {
		t.Fatalf("exit %d, want 1; stderr %s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "BenchmarkBroadcastK32") {
		t.Fatalf("stderr:\n%s", errw.String())
	}
	if !strings.Contains(out.String(), "**FAIL**") {
		t.Fatalf("table should flag the regression:\n%s", out.String())
	}
}

func TestRunCustomThreshold(t *testing.T) {
	dir := t.TempDir()
	writeReport(t, filepath.Join(dir, "BENCH_2026-01-01.json"), "old", map[string]float64{
		"BenchmarkBroadcastK32-8": 1000,
	})
	newPath := filepath.Join(dir, "new.json")
	writeReport(t, newPath, "new", map[string]float64{
		"BenchmarkBroadcastK32-8": 1400, // +40%, under a 50% threshold
	})
	var out, errw bytes.Buffer
	if code := run([]string{"-dir", dir, "-new", newPath, "-threshold", "0.5"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
}

func TestRunNewestBaselineWins(t *testing.T) {
	dir := t.TempDir()
	// Older baseline would fail the gate; newer one passes. The newest
	// (lexicographically last) file must be chosen.
	writeReport(t, filepath.Join(dir, "BENCH_2026-01-01.json"), "old", map[string]float64{
		"BenchmarkBroadcastK32-8": 100,
	})
	writeReport(t, filepath.Join(dir, "BENCH_2026-02-01.json"), "newer", map[string]float64{
		"BenchmarkBroadcastK32-8": 1000,
	})
	newPath := filepath.Join(dir, "new.json")
	writeReport(t, newPath, "new", map[string]float64{
		"BenchmarkBroadcastK32-8": 1050,
	})
	var out, errw bytes.Buffer
	if code := run([]string{"-dir", dir, "-new", newPath}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "BENCH_2026-02-01.json") {
		t.Fatalf("wrong baseline chosen:\n%s", out.String())
	}
}

func TestRunMissingKeysExit2(t *testing.T) {
	dir := t.TempDir()
	writeReport(t, filepath.Join(dir, "BENCH_2026-01-01.json"), "old", map[string]float64{
		"BenchmarkSomethingElse-8": 100,
	})
	newPath := filepath.Join(dir, "new.json")
	writeReport(t, newPath, "new", map[string]float64{
		"BenchmarkSomethingElse-8": 100,
	})
	var out, errw bytes.Buffer
	if code := run([]string{"-dir", dir, "-new", newPath}, &out, &errw); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "none of the key benchmarks") {
		t.Fatalf("stderr:\n%s", errw.String())
	}
}

// TestRunVanishedKeyExit2 drops one gated benchmark from the candidate
// while another key still compares: the gate must fail with exit 2 and
// name the missing benchmark rather than pass on what is left.
func TestRunVanishedKeyExit2(t *testing.T) {
	dir := t.TempDir()
	writeReport(t, filepath.Join(dir, "BENCH_2026-01-01.json"), "old", map[string]float64{
		"BenchmarkBroadcastK32-8":        1000,
		"BenchmarkExactKernels/oracle-8": 500,
		"BenchmarkExactKernels/csr-8":    100,
	})
	newPath := filepath.Join(dir, "new.json")
	writeReport(t, newPath, "new", map[string]float64{
		"BenchmarkBroadcastK32-8":        1000,
		"BenchmarkExactKernels/oracle-8": 500,
	})
	var out, errw bytes.Buffer
	if code := run([]string{"-dir", dir, "-new", newPath}, &out, &errw); code != 2 {
		t.Fatalf("exit %d, want 2; stderr %s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "BenchmarkExactKernels/csr") || strings.Contains(errw.String(), "oracle") {
		t.Fatalf("stderr should name only the missing key:\n%s", errw.String())
	}
	// Retiring the key explicitly makes the same reports pass.
	errw.Reset()
	if code := run([]string{"-dir", dir, "-new", newPath, "-keys", "BenchmarkBroadcastK32"}, &out, &errw); code != 0 {
		t.Fatalf("retired key: exit %d, want 0; stderr %s", code, errw.String())
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	cases := [][]string{
		{},                                  // -new missing
		{"-new", "/nope.json", "-dir", dir}, // no baseline in dir
		{"-new", "/nope.json", "-baseline", "/also-nope.json"}, // unreadable
	}
	for i, args := range cases {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code != 2 {
			t.Errorf("case %d: exit %d, want 2", i, code)
		}
	}
}

func TestRunExplicitBaseline(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "custom.json")
	writeReport(t, base, "old", map[string]float64{"BenchmarkExactKernels/csr-8": 100})
	newPath := filepath.Join(dir, "new.json")
	writeReport(t, newPath, "new", map[string]float64{"BenchmarkExactKernels/csr-8": 101})
	var out, errw bytes.Buffer
	if code := run([]string{"-baseline", base, "-new", newPath}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
}
