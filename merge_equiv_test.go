package adjstream

// Split-run equivalence: for every algorithm of both models, partitioning
// a 9-copy run into three shards — run sequentially or in parallel —
// writing the shards to snapshot files, reading them back out of order,
// and merging must reproduce the single-process parallel Result bit for
// bit.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"adjstream/internal/gen"
	"adjstream/internal/stream"
)

func TestShardedMergeMatchesSingleRun(t *testing.T) {
	g, err := gen.ErdosRenyi(100, 0.12, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := stream.Random(g, 9)
	const k = 9
	shards := []struct {
		lo, hi   int
		parallel bool
		driver   Driver
	}{
		{0, 3, true, DriverBroadcast},
		{3, 7, false, ""},
		{7, 9, true, ""},
	}
	for _, algo := range append(Algorithms(), AlgorithmsForModel(ModelArbitrary)...) {
		t.Run(string(algo), func(t *testing.T) {
			opts := Options{
				Algorithm:  algo,
				SampleSize: 64,
				PairCap:    512,
				Copies:     k,
				Parallel:   true,
				Seed:       21,
			}
			arb := slices.Contains(AlgorithmsForModel(ModelArbitrary), algo)
			if arb {
				// Three of them take a sampling rate; arb-buriol keeps its
				// instance count.
				opts.Model, opts.PairCap = ModelArbitrary, 0
				if algo != AlgoArbBuriol {
					opts.SampleSize, opts.SampleProb = 0, 0.3
				}
			}
			want, err := Estimate(s, opts)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			files := make([]string, len(shards))
			for i, sh := range shards {
				so := opts
				so.Parallel, so.Driver = sh.parallel, sh.driver
				if arb {
					so.Driver = "" // drivers name adjacency-list runs
				}
				snaps, err := EstimateShardContext(context.Background(), s, so, sh.lo, sh.hi)
				if err != nil {
					t.Fatalf("shard [%d,%d): %v", sh.lo, sh.hi, err)
				}
				if len(snaps) != sh.hi-sh.lo {
					t.Fatalf("shard [%d,%d): %d snapshots", sh.lo, sh.hi, len(snaps))
				}
				files[i] = filepath.Join(dir, fmt.Sprintf("shard%d.snap", i))
				if err := WriteSnapshotFile(files[i], sh.lo, snaps); err != nil {
					t.Fatal(err)
				}
			}
			// Reassemble reading the files in reverse order: the merge must
			// not care which shard ran where.
			all := make([]CopySnapshot, k)
			for i := len(files) - 1; i >= 0; i-- {
				idxs, snaps, err := ReadSnapshotFile(files[i])
				if err != nil {
					t.Fatal(err)
				}
				for j, idx := range idxs {
					if idx < 0 || idx >= k || all[idx] != nil {
						t.Fatalf("file %d: bad or duplicate copy index %d", i, idx)
					}
					all[idx] = snaps[j]
				}
			}
			gotAlgo, err := SnapshotAlgorithm(all[0])
			if err != nil {
				t.Fatal(err)
			}
			if gotAlgo != algo {
				t.Errorf("SnapshotAlgorithm = %q, want %q", gotAlgo, algo)
			}
			got, err := MergeSnapshots(all)
			if err != nil {
				t.Fatal(err)
			}
			if got.Estimate != want.Estimate || got.SpaceWords != want.SpaceWords ||
				got.Passes != want.Passes || got.M != want.M || got.Copies != want.Copies {
				t.Errorf("merged (est %v, space %d, passes %d, m %d, copies %d) != single-run (%v, %d, %d, %d, %d)",
					got.Estimate, got.SpaceWords, got.Passes, got.M, got.Copies,
					want.Estimate, want.SpaceWords, want.Passes, want.M, want.Copies)
			}
		})
	}
}

func TestEstimateShardContextValidatesRange(t *testing.T) {
	g, err := gen.ErdosRenyi(20, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := stream.Sorted(g)
	opts := Options{Algorithm: AlgoTwoPassTriangle, SampleProb: 0.5, Copies: 4, Seed: 1}
	for _, r := range [][2]int{{-1, 2}, {2, 2}, {3, 1}, {0, 5}} {
		if _, err := EstimateShardContext(context.Background(), s, opts, r[0], r[1]); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("range [%d,%d): err = %v, want ErrInvalidOptions", r[0], r[1], err)
		}
	}
	// A single-copy "shard" of a single-copy run degenerates to Estimate.
	single := Options{Algorithm: AlgoTwoPassTriangle, SampleProb: 0.5, Seed: 1}
	snaps, err := EstimateShardContext(context.Background(), s, single, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Estimate(s, single)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MergeSnapshots(snaps)
	if err != nil {
		t.Fatal(err)
	}
	if got.Estimate != want.Estimate || got.SpaceWords != want.SpaceWords {
		t.Errorf("single-copy shard merge (%v, %d) != Estimate (%v, %d)",
			got.Estimate, got.SpaceWords, want.Estimate, want.SpaceWords)
	}
}
