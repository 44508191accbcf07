package stream

// Tests for the CopyState wire form and the median merge: round-trips,
// corruption rejection, and the partition-invariance that makes split runs
// bit-identical to single-process ones.

import (
	"math"
	"testing"

	"adjstream/internal/stats"
)

func TestCopyStateRoundTrip(t *testing.T) {
	for _, st := range []CopyState{
		{Algo: "twopass-triangle", Estimate: 1234.5, SpaceWords: 99, Passes: 2, M: 600, Extra: []byte{1, 2, 3}},
		{Algo: "exact", Estimate: 0, SpaceWords: 0, Passes: 1, M: 0},
		{Algo: "x", Estimate: math.Inf(1), SpaceWords: -1, Passes: 0, M: -7, Extra: []byte{}},
		{Algo: "", Estimate: math.SmallestNonzeroFloat64, SpaceWords: 1 << 50, Passes: 3, M: 1},
	} {
		got, err := DecodeCopyState(st.Encode())
		if err != nil {
			t.Fatalf("%+v: %v", st, err)
		}
		if got.Algo != st.Algo || got.Estimate != st.Estimate ||
			got.SpaceWords != st.SpaceWords || got.Passes != st.Passes || got.M != st.M {
			t.Errorf("round trip %+v -> %+v", st, got)
		}
		if len(got.Extra) != len(st.Extra) {
			t.Errorf("extra round trip: %v -> %v", st.Extra, got.Extra)
		}
	}
	// NaN estimates round-trip by bit pattern.
	nan := CopyState{Algo: "a", Estimate: math.NaN()}
	got, err := DecodeCopyState(nan.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(got.Estimate) {
		t.Errorf("NaN estimate decoded to %v", got.Estimate)
	}
}

func TestDecodeCopyStateRejectsCorruption(t *testing.T) {
	good := (&CopyState{Algo: "twopass-triangle", Estimate: 1, Passes: 2, M: 3, Extra: []byte{9}}).Encode()
	cases := map[string][]byte{
		"empty":           nil,
		"bad version":     append([]byte{0xFF}, good[1:]...),
		"truncated tag":   good[:2],
		"truncated body":  good[:len(good)-10],
		"truncated extra": good[:len(good)-1],
		"trailing bytes":  append(append([]byte(nil), good...), 0),
	}
	for name, b := range cases {
		if _, err := DecodeCopyState(b); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	if _, err := DecodeCopyState(good); err != nil {
		t.Fatalf("control: %v", err)
	}
}

// TestMergeMedianSetPartitionInvariant checks the property the split-run
// feature rests on: merging per-copy snapshots gives the same median and
// space totals as MedianOf over the copies, regardless of snapshot order.
func TestMergeMedianSetPartitionInvariant(t *testing.T) {
	ests := []float64{5, 1, 4.25, -3, 9, 2, 7}
	snaps := make([][]byte, len(ests))
	var wantSpace int64
	for i, e := range ests {
		st := CopyState{Algo: "a", Estimate: e, SpaceWords: int64(10 * (i + 1)), Passes: 2, M: int64(100 + i)}
		wantSpace += st.SpaceWords
		snaps[i] = st.Encode()
	}
	want := stats.Median(ests)
	for _, perm := range [][]int{
		{0, 1, 2, 3, 4, 5, 6},
		{6, 5, 4, 3, 2, 1, 0},
		{3, 0, 6, 1, 5, 2, 4},
	} {
		ordered := make([][]byte, len(perm))
		for i, p := range perm {
			ordered[i] = snaps[p]
		}
		got, err := MergeMedianSet(ordered)
		if err != nil {
			t.Fatal(err)
		}
		if got.Estimate != want {
			t.Errorf("perm %v: median %v, want %v", perm, got.Estimate, want)
		}
		if got.SpaceWords != wantSpace {
			t.Errorf("perm %v: space %d, want %d", perm, got.SpaceWords, wantSpace)
		}
		if got.Passes != 2 || got.M != 106 {
			t.Errorf("perm %v: passes/m = %d/%d", perm, got.Passes, got.M)
		}
	}
}

func TestMergeMedianSetErrors(t *testing.T) {
	if _, err := MergeMedianSet(nil); err == nil {
		t.Error("empty set merged without error")
	}
	a := (&CopyState{Algo: "a", Estimate: 1}).Encode()
	b := (&CopyState{Algo: "b", Estimate: 2}).Encode()
	if _, err := MergeMedianSet([][]byte{a, b}); err == nil {
		t.Error("mixed algorithm tags merged without error")
	}
	if _, err := MergeMedianSet([][]byte{a, {0xFF}}); err == nil {
		t.Error("corrupt member merged without error")
	}
}
