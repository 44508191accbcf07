package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is the number of samples a reported percentile must have
// beyond it.
const minBeyond = 10

// errFewSamples reports a percentile the sample cannot support.
var errFewSamples = errors.New("too few samples beyond the percentile")

// percentile returns the nearest-rank q-quantile of the latencies, with
// each failure counted as +Inf (it missed every limit). It refuses a
// percentile with fewer than minBeyond samples beyond it.
func percentile(lat []float64, failures int, q float64) (float64, error) {
	n := len(lat) + failures
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples: %w", 100*q, n, errFewSamples)
	}
	sorted := append([]float64(nil), lat...)
	sort.Float64s(sorted)
	if rank > len(sorted) {
		return math.Inf(1), nil
	}
	return sorted[rank-1], nil
}

// percentileWindow is the size of the consecutive windows windowed
// percentiles are taken over: 200 samples leave 20 beyond a p90.
const percentileWindow = 200

// windowedPercentile splits samples (in send order; NaN marks a failure)
// into consecutive windows of at least percentileWindow samples and returns
// the median of the windows' q-percentiles, so that a stall of the shared
// host during part of a run moves the run's figure less than a change that
// slows every window. With fewer than two windows' worth of samples it is
// the plain percentile.
func windowedPercentile(samples []float64, q float64) (float64, error) {
	k := max(1, len(samples)/percentileWindow)
	per := make([]float64, k)
	for w := range per {
		var lat []float64
		failures := 0
		for _, x := range samples[w*len(samples)/k : (w+1)*len(samples)/k] {
			if math.IsNaN(x) {
				failures++
			} else {
				lat = append(lat, x)
			}
		}
		v, err := percentile(lat, failures, q)
		if err != nil {
			return 0, err
		}
		per[w] = v
	}
	return median(per), nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// runtimeSample is the Go runtime's cumulative CPU and allocation counters.
type runtimeSample struct {
	gcCPU, totalCPU, allocBytes float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: val(s[0].Value), totalCPU: val(s[1].Value), allocBytes: val(s[2].Value)}
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// stamp is the run's provenance: what ran, on what, with which inputs.
// Results whose CPU model or GOMAXPROCS differ are not comparable.
type stamp struct {
	Commit     string         `json:"commit"`
	SourceHash string         `json:"source_sha256"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NProc      int            `json:"nproc"`
	CPUModel   string         `json:"cpu_model"`
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	Samples    map[string]int `json:"samples"` // sample count behind each percentile
}

func newStamp(root, workload string, seed uint64, seconds float64, trace bool) stamp {
	return stamp{
		Commit:     gitCommit(root),
		SourceHash: sourceHash(root),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		Samples:    map[string]int{},
	}
}

// gitCommit names the checked-out commit, or "unknown" outside a git
// work tree.
func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash hashes the module's Go sources and go.mod files, identifying
// the program when there is no commit to name.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00", rel)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
