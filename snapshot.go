package adjstream

import (
	"context"
	"fmt"
	"io"
	"os"

	"adjstream/internal/stream"
)

// Splitting a run across processes. A median-of-k estimation is k
// independent copies whose results meet only at the final median, so the
// copy set [0,k) can be partitioned into disjoint ranges, each range run by
// a separate process with EstimateShardContext, the resulting snapshots
// written to files with WriteSnapshotFile, and the files merged back into
// the bit-identical Result with ReadSnapshotFile + MergeSnapshots (or the
// adjmerge command). Copy i receives the same seed no matter which shard
// runs it — the per-copy schedule depends only on Options.Seed and i — so
// the split is invisible in the output.

// CopySnapshot is one copy's serialized completed-run summary; see
// EstimateShardContext and MergeSnapshots.
type CopySnapshot = []byte

// EstimateShardContext runs the copy range [lo, hi) of the k-copy estimation
// opts describes over s and returns one snapshot per copy, in copy order.
// The full run has k = opts.copies() copies (from Copies or Confidence);
// 0 ≤ lo < hi ≤ k is required. Parallel chooses how the shard's copies
// traverse the stream, exactly as in EstimateContext. The snapshots
// from shards covering all of [0, k) merge into the bit-identical
// single-process Result via MergeSnapshots. Errors wrap ErrUnknownAlgorithm,
// ErrInvalidOptions, or ErrCanceled.
func EstimateShardContext(ctx context.Context, s *Stream, opts Options, lo, hi int) ([]CopySnapshot, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Model == ModelArbitrary {
		return nil, fmt.Errorf("%w: Model %q has no snapshot transport; shard execution is adjacency-list only", ErrInvalidOptions, opts.Model)
	}
	k := opts.copies()
	if lo < 0 || hi <= lo || hi > k {
		return nil, fmt.Errorf("%w: copy range [%d,%d) outside [0,%d)", ErrInvalidOptions, lo, hi, k)
	}
	copies, err := buildCopies(opts, lo, hi, opts.wrapSingle)
	if err != nil {
		return nil, err
	}
	if _, ok := copies[0].(stream.Snapshotter); !ok {
		return nil, fmt.Errorf("%w: algorithm %q does not support snapshots", ErrInvalidOptions, opts.Algorithm)
	}
	if _, _, err := opts.runCopies(ctx, s, copies); err != nil {
		return nil, err
	}
	snaps := make([]CopySnapshot, len(copies))
	for i, e := range copies {
		snaps[i] = e.(stream.Snapshotter).Snapshot()
	}
	recycle(copies)
	return snaps, nil
}

// MergeSnapshots combines per-copy snapshots — from any partition of a run's
// copies into shards, in any order — into the run's Result: the median
// estimate, summed space peaks, and the max pass/edge counts. The result is
// bit-identical to the single-process EstimateContext over the same copies.
// Result.Driver is empty; the caller knows how its shards were executed.
// All snapshots must come from the same algorithm.
func MergeSnapshots(snaps []CopySnapshot) (Result, error) {
	cs, err := stream.MergeMedianSet(snaps)
	if err != nil {
		return Result{}, fmt.Errorf("%w: %w", ErrInvalidOptions, err)
	}
	return Result{
		Estimate:   cs.Estimate,
		SpaceWords: cs.SpaceWords,
		Passes:     int(cs.Passes),
		M:          cs.M,
		Copies:     len(snaps),
	}, nil
}

// SnapshotAlgorithm reports the algorithm tag a snapshot carries.
func SnapshotAlgorithm(snap CopySnapshot) (Algorithm, error) {
	cs, err := stream.DecodeCopyState(snap)
	if err != nil {
		return "", fmt.Errorf("%w: %w", ErrInvalidOptions, err)
	}
	return Algorithm(cs.Algo), nil
}

// WriteSnapshotSet writes a snapshot-set to w: the "adjM" magic, a uint32
// version, a uint32 record count, then one record per snapshot — uint32
// global copy index (lo, lo+1, …), uint32 payload length, payload bytes —
// all little-endian. The index records which copies of the full run the
// shard covered, letting the merge verify disjoint full coverage. The same
// framing carries shard results over HTTP in cluster mode (see
// internal/cluster and stream.SnapshotSetContentType).
func WriteSnapshotSet(w io.Writer, lo int, snaps []CopySnapshot) error {
	return stream.WriteSnapshotSet(w, lo, snaps)
}

// ReadSnapshotSet reads a snapshot-set written by WriteSnapshotSet,
// returning each record's global copy index and payload.
func ReadSnapshotSet(r io.Reader) (indices []int, snaps []CopySnapshot, err error) {
	return stream.ReadSnapshotSet(r)
}

// WriteSnapshotFile writes a snapshot-set file (see WriteSnapshotSet).
func WriteSnapshotFile(path string, lo int, snaps []CopySnapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("adjstream: %w", err)
	}
	if err := WriteSnapshotSet(f, lo, snaps); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("adjstream: %w", err)
	}
	return nil
}

// ReadSnapshotFile reads a snapshot-set file written by WriteSnapshotFile.
func ReadSnapshotFile(path string) (indices []int, snaps []CopySnapshot, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("adjstream: %w", err)
	}
	defer f.Close()
	return ReadSnapshotSet(f)
}
