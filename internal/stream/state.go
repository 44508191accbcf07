package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"adjstream/internal/stats"
)

// Serializable estimator summaries. A median-of-k run is k independent
// copies whose estimates meet only at the final median, so the copy set can
// be split into disjoint ranges executed by separate workers — or separate
// processes — as long as (a) copy i gets the same seed no matter which range
// runs it and (b) each completed copy can hand back a summary the merge step
// combines into the bit-identical median. The facade's seed schedule covers
// (a); Snapshot plus MergeMedianSet cover (b). This file defines the
// contract and the wire form.
//
// A snapshot is a completed-run summary, not a mid-pass checkpoint: it
// captures what the copy contributes to the merge (estimate, space, passes,
// m) plus per-algorithm extras. Nothing reads a snapshot back into an
// estimator — the merge only ever reads completed copies' summaries.

// Snapshotter is the state contract of a copy that can take part in a
// split run: Snapshot freezes a completed run into the versioned CopyState
// wire form.
type Snapshotter interface {
	// Snapshot serializes the completed-run summary. Call it only after
	// the copy has finished all its passes.
	Snapshot() []byte
}

// CopyState is the decoded form of one copy's snapshot.
type CopyState struct {
	// Algo tags the algorithm that produced the snapshot (the facade's
	// algorithm name). Merging rejects mixed tags.
	Algo string
	// Estimate is the copy's final estimate (exact float64 bits).
	Estimate float64
	// SpaceWords is the copy's peak space in words.
	SpaceWords int64
	// Passes is the copy's pass count.
	Passes int64
	// M is the edge count the copy observed.
	M int64
	// Extra holds algorithm-specific fields (documented per algorithm in
	// DESIGN.md §4h); may be empty.
	Extra []byte
}

// copyStateVersion is the snapshot wire-format version.
const copyStateVersion = 1

// Encode serializes st: a version byte, then the algorithm tag
// (uvarint length + bytes), the estimate's IEEE-754 bits, SpaceWords,
// Passes and M as fixed 64-bit little-endian two's complement, and the
// extra payload (uvarint length + bytes).
func (st *CopyState) Encode() []byte {
	buf := make([]byte, 0, 1+binary.MaxVarintLen64+len(st.Algo)+4*8+binary.MaxVarintLen64+len(st.Extra))
	buf = append(buf, copyStateVersion)
	buf = binary.AppendUvarint(buf, uint64(len(st.Algo)))
	buf = append(buf, st.Algo...)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(st.Estimate))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.SpaceWords))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.Passes))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.M))
	buf = binary.AppendUvarint(buf, uint64(len(st.Extra)))
	buf = append(buf, st.Extra...)
	return buf
}

// DecodeCopyState parses a snapshot produced by CopyState.Encode.
func DecodeCopyState(b []byte) (CopyState, error) {
	var st CopyState
	if len(b) == 0 {
		return st, errors.New("stream: empty snapshot")
	}
	if b[0] != copyStateVersion {
		return st, fmt.Errorf("stream: snapshot version %d, want %d", b[0], copyStateVersion)
	}
	b = b[1:]
	algoLen, n := binary.Uvarint(b)
	if n <= 0 || algoLen > uint64(len(b)-n) {
		return st, errors.New("stream: snapshot truncated in algorithm tag")
	}
	b = b[n:]
	st.Algo = string(b[:algoLen])
	b = b[algoLen:]
	if len(b) < 4*8 {
		return st, errors.New("stream: snapshot truncated in summary fields")
	}
	st.Estimate = math.Float64frombits(binary.LittleEndian.Uint64(b))
	st.SpaceWords = int64(binary.LittleEndian.Uint64(b[8:]))
	st.Passes = int64(binary.LittleEndian.Uint64(b[16:]))
	st.M = int64(binary.LittleEndian.Uint64(b[24:]))
	b = b[32:]
	extraLen, n := binary.Uvarint(b)
	if n <= 0 || extraLen != uint64(len(b)-n) {
		return st, errors.New("stream: snapshot truncated in extra payload")
	}
	if extraLen > 0 {
		st.Extra = append([]byte(nil), b[n:]...)
	}
	return st, nil
}

// Summary is what a finished estimator copy of either streaming model
// reports.
type Summary interface {
	Passes() int
	Estimate() float64
	SpaceWords() int64
}

// SnapshotOf builds the standard snapshot for a completed estimator copy,
// reading the summary through the estimator's own accessors. The extra
// fields become the Extra payload: fixed 64-bit little-endian, in order.
func SnapshotOf(algo string, e Summary, m int64, extra ...int64) []byte {
	st := CopyState{
		Algo:       algo,
		Estimate:   e.Estimate(),
		SpaceWords: e.SpaceWords(),
		Passes:     int64(e.Passes()),
		M:          m,
	}
	for _, v := range extra {
		st.Extra = binary.LittleEndian.AppendUint64(st.Extra, uint64(v))
	}
	return st.Encode()
}

// MergeMedianSet combines per-copy snapshots into the median-of-k summary:
// median estimate, summed space, max passes and m. stats.Median sorts its
// input, so the result is bit-identical to MedianOf over the same completed
// copies regardless of how the copies were partitioned across workers or
// processes, and regardless of snapshot order. All snapshots must carry the
// same algorithm tag.
func MergeMedianSet(snapshots [][]byte) (CopyState, error) {
	if len(snapshots) == 0 {
		return CopyState{}, errors.New("stream: no snapshots to merge")
	}
	xs := make([]float64, len(snapshots))
	var merged CopyState
	for i, b := range snapshots {
		st, err := DecodeCopyState(b)
		if err != nil {
			return CopyState{}, fmt.Errorf("stream: snapshot %d: %w", i, err)
		}
		if i == 0 {
			merged.Algo = st.Algo
		} else if st.Algo != merged.Algo {
			return CopyState{}, fmt.Errorf("stream: snapshot %d is for algorithm %q, not %q", i, st.Algo, merged.Algo)
		}
		xs[i] = st.Estimate
		merged.SpaceWords += st.SpaceWords
		if st.Passes > merged.Passes {
			merged.Passes = st.Passes
		}
		if st.M > merged.M {
			merged.M = st.M
		}
	}
	merged.Estimate = stats.Median(xs)
	return merged, nil
}
