// Command adjmerge merges per-copy snapshot files from a split median-of-k
// run into the single-process result.
//
// Each input file is a snapshot set written by cyclecount -snapshot (or
// adjstream.WriteSnapshotFile), covering some copy range of one logical run.
// The files together must cover copies 0..k-1 exactly once; adjmerge
// verifies the coverage, merges the snapshots, and prints the same summary
// lines cyclecount prints for the unsplit run — bit-identical estimate and
// summed space, and the model line of an arbitrary-order run — so the two
// outputs diff clean.
//
// Usage:
//
//	cyclecount -algo twopass-triangle -prob 0.05 -copies 32 -copy-range 0:16  -snapshot a.snap graph.edges
//	cyclecount -algo twopass-triangle -prob 0.05 -copies 32 -copy-range 16:32 -snapshot b.snap graph.edges
//	adjmerge a.snap b.snap
//
// Exit codes: 0 success, 1 runtime failure (unreadable file), 2 usage or
// inconsistent input (gaps, overlaps, mixed algorithms, corrupt snapshots).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"adjstream"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("adjmerge", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: adjmerge <shard.snap>...")
		return 2
	}

	byIndex := map[int]adjstream.CopySnapshot{}
	from := map[int]string{}
	for _, path := range fs.Args() {
		indices, snaps, err := adjstream.ReadSnapshotFile(path)
		if err != nil {
			fmt.Fprintln(stderr, "adjmerge:", err)
			return 1
		}
		for i, idx := range indices {
			if prev, dup := from[idx]; dup {
				fmt.Fprintf(stderr, "adjmerge: copy %d appears in both %s and %s\n", idx, prev, path)
				return 2
			}
			byIndex[idx] = snaps[i]
			from[idx] = path
		}
	}
	// The shards must tile [0, k) with no gaps: every index below the max
	// must be present.
	k := len(byIndex)
	ordered := make([]adjstream.CopySnapshot, k)
	for i := 0; i < k; i++ {
		snap, ok := byIndex[i]
		if !ok {
			fmt.Fprintf(stderr, "adjmerge: %d snapshots but copy %d is missing — shards do not cover 0..%d\n", k, i, k-1)
			return 2
		}
		ordered[i] = snap
	}

	algo, err := adjstream.SnapshotAlgorithm(ordered[0])
	if err != nil {
		fmt.Fprintln(stderr, "adjmerge:", err)
		return 2
	}
	res, err := adjstream.MergeSnapshots(ordered)
	if err != nil {
		fmt.Fprintln(stderr, "adjmerge:", err)
		return 2
	}
	fmt.Fprintf(stdout, "algorithm:   %s\n", algo)
	if slices.Contains(adjstream.AlgorithmsForModel(adjstream.ModelArbitrary), algo) {
		fmt.Fprintf(stdout, "model:       %s\n", adjstream.ModelArbitrary)
	}
	fmt.Fprintf(stdout, "edges (m):   %d\n", res.M)
	fmt.Fprintf(stdout, "passes:      %d\n", res.Passes)
	fmt.Fprintf(stdout, "copies:      %d\n", res.Copies)
	fmt.Fprintf(stdout, "space:       %d words\n", res.SpaceWords)
	fmt.Fprintf(stdout, "estimate:    %.2f\n", res.Estimate)
	return 0
}
