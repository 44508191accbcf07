package baseline

// Snapshots of the baseline estimators a facade algorithm selects,
// mirroring internal/core/state_test.go: the decoded CopyState answers
// exactly what the live copy's accessors answer.

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
func checkSnapshot(t *testing.T, algo string, e snapshotEstimator, s *stream.Stream, extra func() []uint64) {
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
		if got := binary.LittleEndian.Uint64(st.Extra[8*i:]); got != w {
			t.Errorf("%s: extra field %d = %d, live accessor %d", algo, i, got, w)
		}
	}
}

func TestOnePassTriangleState(t *testing.T) {
	e, err := NewOnePassTriangle(Config{SampleProb: 0.6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	checkSnapshot(t, "onepass-triangle", e, stateStream(t), func() []uint64 {
		return []uint64{uint64(e.PairsDiscovered())}
	})
}

func TestWedgeSamplerState(t *testing.T) {
	e, err := NewWedgeSampler(Config{SampleProb: 0.6, WedgeCap: 512, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	checkSnapshot(t, "wedge-sampler", e, stateStream(t), func() []uint64 {
		return []uint64{uint64(e.ClosedWedges()), uint64(e.WedgesFormed())}
	})
}

func TestExactStreamState(t *testing.T) {
	for _, l := range []int{3, 4} {
		e, err := NewExactStream(l)
		if err != nil {
			t.Fatal(err)
		}
		checkSnapshot(t, "exact", e, stateStream(t), func() []uint64 {
			return []uint64{uint64(e.cycleLen)}
		})
	}
}
