package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adjstream"
	"adjstream/internal/gen"
)

func writeFixture(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "k6.edges")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := adjstream.WriteEdgeList(f, gen.Complete(6)); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunExact(t *testing.T) {
	path := writeFixture(t)
	var out, errw bytes.Buffer
	if code := run([]string{"-algo", "exact", path}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "estimate:    20.00") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestRunTwoPassFullSample(t *testing.T) {
	path := writeFixture(t)
	var out, errw bytes.Buffer
	code := run([]string{"-algo", "twopass-triangle", "-prob", "1", "-copies", "3", path}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "estimate:    20.00") {
		t.Fatalf("output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "passes:      2") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestRunStreamInput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.stream")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := adjstream.WriteStream(f, adjstream.SortedStream(gen.Complete(5))); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var out, errw bytes.Buffer
	if code := run([]string{"-stream", "-algo", "exact", path}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "estimate:    10.00") {
		t.Fatalf("output:\n%s", out.String())
	}
}

// TestRunColumnarStreamInput drives the exact counter from a memory-mapped
// columnar stream file.
func TestRunColumnarStreamInput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.adjc")
	if err := adjstream.WriteStreamFile(path, adjstream.SortedStream(gen.Complete(5))); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	if code := run([]string{"-stream", "-algo", "exact", path}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "estimate:    10.00") {
		t.Fatalf("output:\n%s", out.String())
	}
}

// TestRunArbitraryModel drives the arbitrary-order model from an edge-list
// file: at p = 1 the wedge estimator is exact, the model is echoed, and no
// driver line appears (arbitrary runs have none).
func TestRunArbitraryModel(t *testing.T) {
	path := writeFixture(t)
	var out, errw bytes.Buffer
	code := run([]string{"-model", "arbitrary", "-algo", "arb-twopass-wedge", "-prob", "1", path}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	for _, want := range []string{"model:       arbitrary", "estimate:    20.00", "passes:      2", "edges (m):   15"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "driver:") {
		t.Fatalf("arbitrary run printed a driver line:\n%s", out.String())
	}

	// The 4-cycle family over the same flag: K6 has 45 four-cycles.
	out.Reset()
	code = run([]string{"-model", "arbitrary", "-algo", "arb-threepass-fourcycle", "-prob", "1", "-copies", "3", path}, &out, &errw)
	if code != 0 {
		t.Fatalf("fourcycle exit %d: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "estimate:    45.00") || !strings.Contains(out.String(), "passes:      3") {
		t.Fatalf("fourcycle output:\n%s", out.String())
	}
}

// TestRunArbitraryModelStreamInput converts a -stream input by first edge
// occurrence and routes it through the model axis in Options.
func TestRunArbitraryModelStreamInput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.stream")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := adjstream.WriteStream(f, adjstream.SortedStream(gen.Complete(5))); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var out, errw bytes.Buffer
	code := run([]string{"-stream", "-model", "arbitrary", "-algo", "arb-nearopt-fourcycle", "-prob", "1", path}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "estimate:    15.00") { // K5 has 15 four-cycles
		t.Fatalf("output:\n%s", out.String())
	}
}

// TestRunArbitraryModelRejections pins exit code 2 for flag combinations the
// arbitrary model does not support.
func TestRunArbitraryModelRejections(t *testing.T) {
	path := writeFixture(t)
	cases := [][]string{
		{"-model", "bogus", "-algo", "exact", path},
		{"-model", "arbitrary", "-compare", path},
		{"-model", "arbitrary", "-algo", "arb-twopass-wedge", "-prob", "1", "-snapshot", "s.snap", path},
		{"-model", "arbitrary", "-algo", "arb-twopass-wedge", "-prob", "1", "-copy-range", "0:1", path},
		{"-model", "arbitrary", "-algo", "arb-twopass-wedge", "-prob", "1", "-order", "random", path},
		{"-model", "arbitrary", "-algo", "exact", path},             // AL algorithm under arbitrary
		{"-model", "arbitrary", "-algo", "arb-twopass-wedge", path}, // missing rate
		{"-algo", "arb-twopass-wedge", "-prob", "1", path},          // arb algorithm without the model
	}
	for i, args := range cases {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code != 2 {
			t.Errorf("case %d (%v): code = %d, want 2 (stderr %q)", i, args, code, errw.String())
		}
	}
}

func TestRunCompare(t *testing.T) {
	path := writeFixture(t)
	var out, errw bytes.Buffer
	if code := run([]string{"-compare", "-prob", "1", path}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	for _, a := range adjstream.Algorithms() {
		if !strings.Contains(out.String(), string(a)) {
			t.Fatalf("compare output missing %s:\n%s", a, out.String())
		}
	}
}

func TestRunErrors(t *testing.T) {
	path := writeFixture(t)
	cases := [][]string{
		{},                                  // missing file
		{"-algo", "bogus", path},            // unknown algorithm
		{"-order", "bogus", path},           // unknown order
		{"-algo", "twopass-triangle", path}, // no sampling parameter
		{"/does/not/exist"},                 // missing input
	}
	for i, args := range cases {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code == 0 {
			t.Errorf("case %d: expected failure", i)
		}
	}
}

// TestExitCodes pins the documented exit-code mapping: 2 for invalid
// options, 3 for a -timeout abort, 0 for success.
func TestExitCodes(t *testing.T) {
	path := writeFixture(t)
	var out, errw bytes.Buffer
	if code := run([]string{"-algo", "bogus", path}, &out, &errw); code != 2 {
		t.Errorf("unknown algorithm: code = %d, want 2", code)
	}
	// -driver is gone: -parallel always runs the broadcast driver.
	errw.Reset()
	if code := run([]string{"-algo", "exact", "-copies", "3", "-parallel", "-driver", "broadcast", path}, &out, &errw); code != 2 ||
		!strings.Contains(errw.String(), "flag provided but not defined: -driver") {
		t.Errorf("-driver: code = %d, stderr %q; want 2 and an undefined-flag error", code, errw.String())
	}
	errw.Reset()
	if code := run([]string{"-algo", "exact", "-timeout", "1ns", path}, &out, &errw); code != 3 {
		t.Errorf("timeout: code = %d, want 3 (stderr %q)", code, errw.String())
	}
	if !strings.Contains(errw.String(), "canceled") {
		t.Errorf("timeout stderr = %q, want a cancellation message", errw.String())
	}
	out.Reset()
	if code := run([]string{"-algo", "exact", "-timeout", "1m", path}, &out, &errw); code != 0 {
		t.Errorf("within timeout: code = %d, want 0", code)
	}
	if !strings.Contains(out.String(), "estimate:    20.00") {
		t.Errorf("missing estimate in output: %s", out.String())
	}
}
