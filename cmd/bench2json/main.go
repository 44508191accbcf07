// Command bench2json converts `go test -bench` text output into a
// machine-readable JSON report, so benchmark runs can be archived and
// diffed (see `make bench-json`, which writes BENCH_<date>.json).
//
// Usage:
//
//	go test -run NONE -bench . -benchmem ./... | bench2json -out BENCH.json
//
// Non-benchmark lines (PASS, ok, warnings) are ignored; context lines
// (goos, goarch, cpu, pkg) are recorded and attached to the benchmarks
// that follow them. Custom metrics emitted via b.ReportMetric (relerr,
// space-words, ...) are preserved alongside ns/op, B/op and allocs/op.
// The report is stamped with the git commit of the working directory
// (suffixed "-dirty" when tracked files differ from it) and with the
// -count the benchmarks ran at: the most runs of any one benchmark.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Pkg        string             `json:"pkg,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the full JSON document.
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

// parseBench reads `go test -bench` output and collects benchmark lines.
func parseBench(r io.Reader) (*Report, error) {
	rep := &Report{Benchmarks: []Benchmark{}}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{
			Name:       fields[0],
			Pkg:        pkg,
			Iterations: iters,
			Metrics:    make(map[string]float64, (len(fields)-2)/2),
		}
		ok := true
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				ok = false
				break
			}
			b.Metrics[fields[i+1]] = v
		}
		if ok {
			rep.Benchmarks = append(rep.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	runs := make(map[[2]string]int)
	for _, b := range rep.Benchmarks {
		k := [2]string{b.Pkg, b.Name}
		runs[k]++
		rep.Count = max(rep.Count, runs[k])
	}
	return rep, nil
}

// gitCommit returns the commit checked out in the working directory, with
// "-dirty" appended when tracked files differ from it, or "" when git or
// the repository is unavailable.
func gitCommit() string {
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	commit := strings.TrimSpace(string(head))
	if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
		commit += "-dirty"
	}
	return commit
}

func run(in io.Reader, outPath string, now time.Time, commit string) error {
	rep, err := parseBench(in)
	if err != nil {
		return err
	}
	rep.Commit = commit
	rep.Date = now.UTC().Format(time.RFC3339)
	rep.GoVersion = runtime.Version()
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if outPath == "" || outPath == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(outPath, buf, 0o644)
}

func main() {
	out := flag.String("out", "-", "output file (default stdout)")
	flag.Parse()
	if err := run(os.Stdin, *out, time.Now(), gitCommit()); err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
}
