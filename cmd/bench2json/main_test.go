package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: adjstream/internal/graph
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkExactKernels/triangles/large/oracle         	     100	   5471161 ns/op	  643336 B/op	    7635 allocs/op
BenchmarkExactKernels/triangles/large/csr-seq-4      	    1000	   2915191 ns/op	      32 B/op	       2 allocs/op
PASS
ok  	adjstream/internal/graph	0.269s
pkg: adjstream
BenchmarkTable1Row01WedgeSampler-8 	      50	  20000 ns/op	 0.125 relerr	 4096 space-words
some stray line
ok  	adjstream	1.0s
`

func TestParseBench(t *testing.T) {
	rep, err := parseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GOOS != "linux" || rep.GOARCH != "amd64" {
		t.Errorf("goos/goarch = %q/%q", rep.GOOS, rep.GOARCH)
	}
	if !strings.Contains(rep.CPU, "Xeon") {
		t.Errorf("cpu = %q", rep.CPU)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("got %d benchmarks, want 3", len(rep.Benchmarks))
	}
	b0 := rep.Benchmarks[0]
	if b0.Name != "BenchmarkExactKernels/triangles/large/oracle" ||
		b0.Pkg != "adjstream/internal/graph" || b0.Iterations != 100 {
		t.Errorf("b0 = %+v", b0)
	}
	if b0.Metrics["ns/op"] != 5471161 || b0.Metrics["allocs/op"] != 7635 {
		t.Errorf("b0 metrics = %v", b0.Metrics)
	}
	b2 := rep.Benchmarks[2]
	if b2.Pkg != "adjstream" {
		t.Errorf("pkg context not updated: %+v", b2)
	}
	if b2.Metrics["relerr"] != 0.125 || b2.Metrics["space-words"] != 4096 {
		t.Errorf("custom metrics lost: %v", b2.Metrics)
	}
	if rep.Count != 1 {
		t.Errorf("count = %d, want 1", rep.Count)
	}
}

// A -count run repeats each benchmark line; the report records the count.
// The same name in two packages is two benchmarks, not a repeat.
func TestParseBenchCount(t *testing.T) {
	const in = `pkg: a
BenchmarkX-2 	 10	 100 ns/op
BenchmarkX-2 	 10	 110 ns/op
BenchmarkX-2 	 10	 105 ns/op
BenchmarkY-2 	 10	 100 ns/op
pkg: b
BenchmarkX-2 	 10	 100 ns/op
`
	rep, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Count != 3 {
		t.Fatalf("count = %d, want 3", rep.Count)
	}
}

func TestParseBenchEmpty(t *testing.T) {
	rep, err := parseBench(strings.NewReader("PASS\nok x 0.1s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 {
		t.Fatalf("got %d benchmarks, want 0", len(rep.Benchmarks))
	}
}
