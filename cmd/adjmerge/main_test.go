package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adjstream"
	"adjstream/internal/gen"
	"adjstream/internal/stream"
)

// writeShards runs a 6-copy estimation as three shard files in dir and
// returns their paths plus the single-process Result they must merge into.
func writeShards(t *testing.T, dir string) ([]string, adjstream.Result) {
	t.Helper()
	g, err := gen.ErdosRenyi(60, 0.15, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := stream.Random(g, 4)
	opts := adjstream.Options{
		Algorithm:  adjstream.AlgoTwoPassTriangle,
		SampleProb: 0.5,
		Copies:     6,
		Parallel:   true,
		Seed:       13,
	}
	want, err := adjstream.Estimate(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	bounds := [][2]int{{0, 2}, {2, 5}, {5, 6}}
	paths := make([]string, len(bounds))
	for i, b := range bounds {
		snaps, err := adjstream.EstimateShardContext(context.Background(), s, opts, b[0], b[1])
		if err != nil {
			t.Fatal(err)
		}
		paths[i] = filepath.Join(dir, fmt.Sprintf("shard%d.snap", i))
		if err := adjstream.WriteSnapshotFile(paths[i], b[0], snaps); err != nil {
			t.Fatal(err)
		}
	}
	return paths, want
}

func TestMergeHappyPath(t *testing.T) {
	paths, want := writeShards(t, t.TempDir())
	var stdout, stderr bytes.Buffer
	// Shard order on the command line must not matter.
	if code := run([]string{paths[2], paths[0], paths[1]}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, line := range []string{
		"algorithm:   twopass-triangle",
		fmt.Sprintf("edges (m):   %d", want.M),
		fmt.Sprintf("passes:      %d", want.Passes),
		"copies:      6",
		fmt.Sprintf("space:       %d words", want.SpaceWords),
		fmt.Sprintf("estimate:    %.2f", want.Estimate),
	} {
		if !strings.Contains(out, line) {
			t.Errorf("output missing %q:\n%s", line, out)
		}
	}
}

func TestMergeRejectsGapsAndDuplicates(t *testing.T) {
	paths, _ := writeShards(t, t.TempDir())
	var stdout, stderr bytes.Buffer
	// Missing middle shard: copies 2..4 absent.
	if code := run([]string{paths[0], paths[2]}, &stdout, &stderr); code != 2 {
		t.Errorf("gap: exit %d, want 2 (stderr: %s)", code, stderr.String())
	}
	stderr.Reset()
	// Same shard twice: duplicate copy indices.
	if code := run([]string{paths[0], paths[0], paths[1], paths[2]}, &stdout, &stderr); code != 2 {
		t.Errorf("duplicate: exit %d, want 2 (stderr: %s)", code, stderr.String())
	}
}

func TestMergeUsageAndIOErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if code := run([]string{filepath.Join(t.TempDir(), "missing.snap")}, &stdout, &stderr); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}
	// A file that is not a snapshot set fails cleanly.
	bogus := filepath.Join(t.TempDir(), "bogus.snap")
	if err := os.WriteFile(bogus, []byte("not a snapshot set"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{bogus}, &stdout, &stderr); code != 1 {
		t.Errorf("bogus file: exit %d, want 1", code)
	}
}

// TestMergeArbitraryModel merges the shards of an arbitrary-order run: the
// summary names the model, as cyclecount's unsplit output does.
func TestMergeArbitraryModel(t *testing.T) {
	g, err := gen.ErdosRenyi(60, 0.15, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := stream.Random(g, 4)
	opts := adjstream.Options{
		Model:      adjstream.ModelArbitrary,
		Algorithm:  adjstream.AlgoArbNearOptFourCycle,
		SampleProb: 0.5,
		Copies:     3,
		Seed:       13,
	}
	want, err := adjstream.Estimate(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var paths []string
	for i, b := range [][2]int{{0, 1}, {1, 3}} {
		snaps, err := adjstream.EstimateShardContext(context.Background(), s, opts, b[0], b[1])
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, filepath.Join(dir, fmt.Sprintf("shard%d.snap", i)))
		if err := adjstream.WriteSnapshotFile(paths[i], b[0], snaps); err != nil {
			t.Fatal(err)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run(paths, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	for _, line := range []string{
		"algorithm:   arb-nearopt-fourcycle\nmodel:       arbitrary\n",
		fmt.Sprintf("estimate:    %.2f\n", want.Estimate),
		fmt.Sprintf("space:       %d words\n", want.SpaceWords),
	} {
		if !strings.Contains(stdout.String(), line) {
			t.Errorf("output lacks %q:\n%s", line, stdout.String())
		}
	}
}
