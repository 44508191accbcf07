package adjstream

// Chunk-walker equality tests: every driver hands estimators whole columnar
// chunks through one walker, and for every estimator in internal/core and
// internal/baseline the result must be bit-identical to an item-at-a-time
// reference walk of Stream.Items(), defined here independently of the
// walker. Any divergence in estimate or space therefore isolates a bug in
// the walker's list transitions or in a driver's use of it.

import (
	"context"
	"testing"

	"adjstream/internal/gen"
	"adjstream/internal/stream"
)

// batchEquivStream returns a fixed-seed stream that spans multiple chunks
// (len > DefaultChunkItems), so adjacency lists cross chunk boundaries.
func batchEquivStream(t *testing.T) *stream.Stream {
	t.Helper()
	g, err := gen.ErdosRenyi(120, 0.1, 11)
	if err != nil {
		t.Fatal(err)
	}
	s := stream.Random(g, 5)
	if s.Len() <= stream.DefaultChunkItems {
		t.Fatalf("stream has %d items; want > %d to cross chunk boundaries", s.Len(), stream.DefaultChunkItems)
	}
	return s
}

// runItems is the reference driver: every pass walks the row form, opening
// a list wherever the owner changes and closing it before the next one
// starts or the pass ends.
func runItems(s *stream.Stream, a stream.Algorithm) {
	items := s.Items()
	for p := 0; p < a.Passes(); p++ {
		a.StartPass(p)
		for i, it := range items {
			if i == 0 || it.Owner != items[i-1].Owner {
				if i > 0 {
					a.EndList(items[i-1].Owner)
				}
				a.StartList(it.Owner)
			}
			a.Edge(it.Owner, it.Nbr)
		}
		if len(items) > 0 {
			a.EndList(items[len(items)-1].Owner)
		}
		a.EndPass(p)
	}
}

// itemReference runs one copy of tc at seed through runItems.
func itemReference(t *testing.T, s *stream.Stream, mk func(uint64) (stream.Estimator, error), seed uint64) stream.Estimator {
	t.Helper()
	ref, err := mk(seed)
	if err != nil {
		t.Fatal(err)
	}
	runItems(s, ref)
	return ref
}

// sameAs reports any estimate or space divergence of got from ref.
func sameAs(t *testing.T, label string, got, ref stream.Estimator) {
	t.Helper()
	if g, w := got.Estimate(), ref.Estimate(); g != w {
		t.Errorf("%s: estimate %v != item reference %v", label, g, w)
	}
	if g, w := got.SpaceWords(), ref.SpaceWords(); g != w {
		t.Errorf("%s: space %d != item reference %d", label, g, w)
	}
}

// TestBatchPathMatchesItemPathSequential pins the sequential driver: for
// each estimator, Run equals the item reference walk.
func TestBatchPathMatchesItemPathSequential(t *testing.T) {
	s := batchEquivStream(t)
	for _, tc := range estimatorRoster(s.M()) {
		t.Run(tc.name, func(t *testing.T) {
			const seed = 1789
			ref := itemReference(t, s, tc.mk, seed)
			got, err := tc.mk(seed)
			if err != nil {
				t.Fatal(err)
			}
			stream.Run(s, got)
			sameAs(t, "sequential", got, ref)
		})
	}
}

// TestBatchPathMatchesItemPathBroadcast pins the broadcast driver: every
// copy of a k-copy run equals the item reference walk.
func TestBatchPathMatchesItemPathBroadcast(t *testing.T) {
	s := batchEquivStream(t)
	const k = 4
	for _, tc := range estimatorRoster(s.M()) {
		t.Run(tc.name, func(t *testing.T) {
			const seed = 271828
			ref := itemReference(t, s, tc.mk, seed)
			copies := make([]stream.Estimator, k)
			for i := range copies {
				a, err := tc.mk(seed)
				if err != nil {
					t.Fatal(err)
				}
				copies[i] = a
			}
			if _, err := stream.RunBroadcastContext(context.Background(), s, copies); err != nil {
				t.Fatal(err)
			}
			for _, c := range copies {
				sameAs(t, "broadcast", c, ref)
			}
		})
	}
}

// TestBatchPathMatchesItemPathReplay pins the per-copy replay of a k-copy
// run — each copy walking the whole stream under its own RunContext, as
// EstimateShardContext and LocalEstimateContext do for sequential shards —
// with the copies running concurrently.
func TestBatchPathMatchesItemPathReplay(t *testing.T) {
	s := batchEquivStream(t)
	const k = 3
	for _, tc := range estimatorRoster(s.M()) {
		t.Run(tc.name, func(t *testing.T) {
			const seed = 31415
			ref := itemReference(t, s, tc.mk, seed)
			copies := make([]stream.Estimator, k)
			errs := make(chan error, k)
			for i := range copies {
				a, err := tc.mk(seed)
				if err != nil {
					t.Fatal(err)
				}
				copies[i] = a
				go func() { errs <- stream.RunContext(context.Background(), s, a) }()
			}
			for range copies {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			for _, c := range copies {
				sameAs(t, "replay", c, ref)
			}
		})
	}
}
