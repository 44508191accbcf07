package core

// Snapshots of the core estimators: after a run, the decoded CopyState must
// carry the algorithm tag and answer exactly what the live copy's accessors
// answer — estimate, space, passes, m and every Extra field — since a merge
// reads nothing else.

import (
	"encoding/binary"
	"testing"

	"adjstream/internal/gen"
	"adjstream/internal/stream"
)

func stateStream(t testing.TB) *stream.Stream {
	t.Helper()
	g, err := gen.ErdosRenyi(40, 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	return stream.Random(g, 3)
}

// snapshotEstimator is a copy a split run can merge.
type snapshotEstimator interface {
	stream.Estimator
	stream.Snapshotter
	M() int64
}

// checkSnapshot runs e over s, decodes its snapshot and compares every
// field with e's live accessors; extra lists the live values of the Extra
// fields, in wire order.
func checkSnapshot(t *testing.T, algo string, e snapshotEstimator, s *stream.Stream, extra func() []int64) {
	t.Helper()
	stream.Run(s, e)
	st, err := stream.DecodeCopyState(e.Snapshot())
	if err != nil {
		t.Fatalf("%s: decode own snapshot: %v", algo, err)
	}
	if st.Algo != algo || st.Estimate != e.Estimate() || st.SpaceWords != e.SpaceWords() ||
		st.Passes != int64(e.Passes()) || st.M != e.M() {
		t.Errorf("%s: snapshot %+v diverges from the live copy (est %v, space %d, passes %d, m %d)",
			algo, st, e.Estimate(), e.SpaceWords(), e.Passes(), e.M())
	}
	if e.M() != s.M() {
		t.Errorf("%s: live m = %d, stream m = %d", algo, e.M(), s.M())
	}
	want := extra()
	if len(st.Extra) != 8*len(want) {
		t.Fatalf("%s: extra payload is %d bytes, want %d", algo, len(st.Extra), 8*len(want))
	}
	for i, w := range want {
		if got := int64(binary.LittleEndian.Uint64(st.Extra[8*i:])); got != w {
			t.Errorf("%s: extra field %d = %d, live accessor %d", algo, i, got, w)
		}
	}
}

func TestTwoPassTriangleState(t *testing.T) {
	e, err := NewTwoPassTriangle(TriangleConfig{SampleProb: 0.6, PairCap: 4096, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	checkSnapshot(t, "twopass-triangle", e, stateStream(t), func() []int64 {
		return []int64{e.PairsDiscovered()}
	})
}

func TestThreePassTriangleState(t *testing.T) {
	e, err := NewThreePassTriangle(TriangleConfig{SampleProb: 0.6, PairCap: 4096, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	checkSnapshot(t, "threepass-triangle", e, stateStream(t), func() []int64 {
		return []int64{int64(e.PairsCollected())}
	})
}

func TestNaiveTwoPassState(t *testing.T) {
	e, err := NewNaiveTwoPass(TriangleConfig{SampleProb: 0.6, PairCap: 4096, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	checkSnapshot(t, "naive-twopass", e, stateStream(t), func() []int64 {
		return []int64{e.PairsDiscovered()}
	})
}

func TestAdaptiveTwoPassTriangleState(t *testing.T) {
	e, err := NewAdaptiveTwoPassTriangle(AdaptiveConfig{InitialSample: 256, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	checkSnapshot(t, "adaptive-triangle", e, stateStream(t), func() []int64 {
		return []int64{int64(e.FinalSample())}
	})
}

func TestTwoPassFourCycleState(t *testing.T) {
	e, err := NewTwoPassFourCycle(FourCycleConfig{SampleProb: 0.6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	checkSnapshot(t, "twopass-fourcycle", e, stateStream(t), func() []int64 {
		return []int64{e.WedgesFormed(), int64(e.WedgesKept()), e.CyclesThroughSampledWedges()}
	})
}
