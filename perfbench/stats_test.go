package main

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentile(t *testing.T) {
	// 100 samples 1..100: p90 is 90 with exactly 10 beyond it.
	if v, err := percentile(seq(100), 0, 0.9); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	// 99 samples leave only 9 beyond the p90: refused.
	if _, err := percentile(seq(99), 0, 0.9); !errors.Is(err, errFewSamples) {
		t.Errorf("p90 of 99 samples: err %v, want errFewSamples", err)
	}
	// A failure is a sample that missed every limit: 90 successes and 10
	// failures put p90 on the last success; 89 and 11 put it on a failure.
	if v, err := percentile(seq(90), 10, 0.9); err != nil || v != 90 {
		t.Errorf("p90 with 10 failures = %v, %v; want 90", v, err)
	}
	if v, err := percentile(seq(89), 11, 0.9); err != nil || !math.IsInf(v, 1) {
		t.Errorf("p90 with 11 failures = %v, %v; want +Inf", v, err)
	}
	// Failures count toward the sample size too.
	if v, err := percentile(seq(15), 5, 0.5); err != nil || v != 10 {
		t.Errorf("p50 of 15 + 5 failures = %v, %v; want 10", v, err)
	}
}

func TestWindowedPercentile(t *testing.T) {
	// Two windows of 200: p50s 100.5-ish and 300.5-ish; the median of two
	// is their mean.
	v, err := windowedPercentile(seq(400), 0.5)
	if err != nil || v != (100+300)/2.0 {
		t.Errorf("windowed p50 = %v, %v; want 200", v, err)
	}
	// A failure (NaN) inside a window counts against that window.
	xs := seq(150)
	xs[3] = math.NaN()
	if _, err := windowedPercentile(xs, 0.9); err != nil {
		t.Errorf("windowed p90 of 150 with one failure: %v", err)
	}
	if _, err := windowedPercentile(seq(50), 0.9); !errors.Is(err, errFewSamples) {
		t.Errorf("windowed p90 of 50 samples: err %v, want errFewSamples", err)
	}
}

func TestCompareFlagsDifferentHardware(t *testing.T) {
	dir := t.TempDir()
	a := record{Stamp: stamp{CPUModel: "A", GOMAXPROCS: 2, Workload: hotMix}, Metrics: map[string]metricValue{"estimate_p50_ms": {1, "ms"}}}
	b := a
	b.Metrics = map[string]metricValue{"estimate_p50_ms": {1.5, "ms"}}
	pa, pb := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	for p, r := range map[string]record{pa: a, pb: b} {
		if err := writeJSON(p, r); err != nil {
			t.Fatal(err)
		}
	}
	var out, errOut bytes.Buffer
	if code := compareCmd([]string{pa, pb}, &out, &errOut); code != 0 || !strings.Contains(out.String(), "+50.0%") {
		t.Errorf("compare same hardware: exit %d, output %q", code, out.String())
	}
	b.Stamp.GOMAXPROCS = 4
	if err := writeJSON(pb, b); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := compareCmd([]string{pa, pb}, &out, &errOut); code != 3 || !strings.Contains(out.String(), "not comparable") {
		t.Errorf("compare different GOMAXPROCS: exit %d, output %q", code, out.String())
	}
}

// The metric lists the program prints must be the ones BENCHMARK.json
// declares, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEndMetrics) {
		t.Errorf("end_to_end: BENCHMARK.json %v, program %v", spec.EndToEnd, endToEndMetrics)
	}
	if !reflect.DeepEqual(spec.PerLayer, layerMetricDefs) {
		t.Errorf("per_layer: BENCHMARK.json %v, program %v", spec.PerLayer, layerMetricDefs)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", names, workloadNames)
	}
}

// A hot-mix run keeps one op per request in the measured process.
func TestOpIsSmall(t *testing.T) {
	if n := unsafe.Sizeof(op{}); n > 40 {
		t.Errorf("op is %d bytes, want at most 40", n)
	}
}
