package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"adjstream"
	"adjstream/internal/stream"
)

func TestRunAllKinds(t *testing.T) {
	kinds := []string{
		"er", "gnm", "complete", "bipartite", "chunglu", "ba", "planted",
		"books", "butterflies", "disjoint-triangles", "disjoint-c4",
		"torus", "regular", "smallworld", "plane",
	}
	for _, kind := range kinds {
		var out, errw bytes.Buffer
		args := []string{"-kind", kind, "-n", "20", "-m", "40", "-t", "5", "-side", "10", "-k", "2", "-q", "3"}
		if code := run(args, &out, &errw); code != 0 {
			t.Fatalf("%s: exit %d: %s", kind, code, errw.String())
		}
		g, err := adjstream.ReadEdgeList(&out)
		if err != nil {
			t.Fatalf("%s: parsing output: %v", kind, err)
		}
		if g.M() == 0 {
			t.Fatalf("%s: empty graph", kind)
		}
	}
}

func TestRunStreamFormats(t *testing.T) {
	dir := t.TempDir()
	txtPath := filepath.Join(dir, "g.stream")
	var out, errw bytes.Buffer
	if code := run([]string{"-kind", "complete", "-n", "6", "-format", "stream", "-order", "sorted", "-out", txtPath}, &out, &errw); code != 0 {
		t.Fatalf("exit: %s", errw.String())
	}
	s, err := adjstream.ReadStreamFile(txtPath)
	if err != nil {
		t.Fatal(err)
	}
	if s.M() != 15 {
		t.Fatalf("M = %d", s.M())
	}

	// The retired "adj1" binary format is no longer written.
	out.Reset()
	errw.Reset()
	if code := run([]string{"-kind", "complete", "-n", "6", "-format", "binstream", "-out", filepath.Join(dir, "g.adjb")}, &out, &errw); code == 0 || !strings.Contains(errw.String(), "unknown format") {
		t.Fatalf("-format binstream: exit %d, stderr %q; want an unknown-format failure", code, errw.String())
	}

	colPath := filepath.Join(dir, "g.adjc")
	out.Reset()
	errw.Reset()
	if code := run([]string{"-kind", "complete", "-n", "6", "-format", "colstream", "-order", "sorted", "-out", colPath}, &out, &errw); code != 0 {
		t.Fatalf("exit: %s", errw.String())
	}
	m, err := stream.OpenMapped(colPath)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.M() != 15 {
		t.Fatalf("columnar M = %d", m.M())
	}
	if got, want := m.Items(), s.Items(); len(got) != len(want) {
		t.Fatalf("columnar stream has %d items, text stream %d", len(got), len(want))
	}
}

// TestRunArbStream checks the arbitrary-order format: the output is a valid
// edge list covering the whole graph, deterministic in the seed, and not in
// sorted order (it is a shuffle).
func TestRunArbStream(t *testing.T) {
	gen := func(seed string) string {
		var out, errw bytes.Buffer
		if code := run([]string{"-kind", "complete", "-n", "8", "-format", "arbstream", "-seed", seed}, &out, &errw); code != 0 {
			t.Fatalf("exit: %s", errw.String())
		}
		return out.String()
	}
	first := gen("7")
	if gen("7") != first {
		t.Fatal("arbstream output is not deterministic in the seed")
	}
	if gen("8") == first {
		t.Fatal("arbstream output ignores the seed")
	}
	as, err := adjstream.ReadArbitraryStream(bytes.NewReader([]byte(first)))
	if err != nil {
		t.Fatal(err)
	}
	if as.M() != 28 || as.N() != 8 {
		t.Fatalf("arbstream m=%d n=%d, want 28, 8", as.M(), as.N())
	}
	var sorted bytes.Buffer
	if code := run([]string{"-kind", "complete", "-n", "8", "-seed", "7"}, &sorted, &bytes.Buffer{}); code != 0 {
		t.Fatal("edges format failed")
	}
	if first == sorted.String() {
		t.Fatal("arbstream output is in sorted order; expected a shuffle")
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-kind", "bogus"},
		{"-format", "bogus", "-kind", "complete", "-n", "4"},
		{"-kind", "plane", "-q", "6"},              // not a prime power
		{"-kind", "regular", "-n", "5", "-k", "3"}, // odd n·d
	}
	for i, args := range cases {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code == 0 {
			t.Errorf("case %d: expected failure", i)
		}
	}
}
