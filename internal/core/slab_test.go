package core

// White-box checks of the slab invariants the estimators' bit-identity and
// memory bounds rest on: lists keep insertion order across removals and
// slot reuse, a ref to a removed entry stays dead after its slot is reused,
// and under eviction every slab stays within its bound.

import (
	"slices"
	"testing"

	"adjstream/internal/gen"
	"adjstream/internal/graph"
	"adjstream/internal/stream"
)

func listOf(s *slab[int], v graph.V) []int32 {
	e := s.lists.find(v)
	if e == nil {
		return nil
	}
	return slices.Clone(s.lists.ids(e[s.kind]))
}

func TestSlabListsKeepInsertionOrderAcrossReuse(t *testing.T) {
	var lists vertexLists
	s := newSlab[int](&lists, 0)
	// Entries 0..9 all on vertex 7, each with its own other endpoint.
	for id := int32(0); id < 10; id++ {
		s.put(id, 7, graph.V(100+id), int(id))
	}
	old := s.ref(3)
	for _, id := range []int32{3, 0, 8} {
		s.unlink(id)
	}
	if got, want := listOf(&s, 7), []int32{1, 2, 4, 5, 6, 7, 9}; !slices.Equal(got, want) {
		t.Fatalf("after removals: list of 7 = %v, want %v", got, want)
	}
	if lists.find(103) != nil {
		t.Fatal("vertex 103 kept a slot after its only entry left")
	}
	// Reusing slot 3 appends the new entry at the tail, not at 3's old place.
	s.put(3, 7, 200, 33)
	if got, want := listOf(&s, 7), []int32{1, 2, 4, 5, 6, 7, 9, 3}; !slices.Equal(got, want) {
		t.Fatalf("after reuse: list of 7 = %v, want %v", got, want)
	}
	if s.alive(old) {
		t.Fatal("a ref to the removed entry reads alive after its slot was reused")
	}
	if !s.alive(s.ref(3)) || s.live != 8 {
		t.Fatalf("live = %d, want 8 with slot 3 alive", s.live)
	}
}

// An entry is reported once both endpoints appear in a list, in the order
// of the first appearance, unless it was unlinked in between.
func TestSlabFinishListOrderAndRemoval(t *testing.T) {
	var lists vertexLists
	s := newSlab[int](&lists, 0)
	s.put(0, 1, 2, 0)
	s.put(1, 3, 4, 0)
	s.put(2, 5, 6, 0)
	touch := func(v graph.V) {
		if e := lists.find(v); e != nil {
			s.touch(lists.ids(e[0]))
		}
	}
	for _, v := range []graph.V{3, 1, 5, 2, 4, 6} {
		touch(v)
	}
	s.unlink(2)
	var got []int32
	s.finishList(func(id int32) { got = append(got, id) })
	if want := []int32{1, 0}; !slices.Equal(got, want) {
		t.Fatalf("closed = %v, want %v (first-touch order, unlinked entry skipped)", got, want)
	}
	// The next list starts clean: one endpoint alone closes nothing.
	touch(1)
	got = got[:0]
	s.finishList(func(id int32) { got = append(got, id) })
	if len(got) != 0 {
		t.Fatalf("closed = %v after a single endpoint appeared", got)
	}
}

// With both the bottom-k sample and the pair and wedge reservoirs evicting,
// record, watcher and wedge slabs stay within k, 3·PairCap and WedgeCap.
func TestSlabsStayWithinBoundsUnderEviction(t *testing.T) {
	g, err := gen.ErdosRenyi(60, 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := stream.Random(g, 4)
	for seed := uint64(1); seed <= 5; seed++ {
		tp, err := NewTwoPassTriangle(TriangleConfig{SampleSize: 48, PairCap: 32, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		stream.Run(s, tp)
		if tp.pairs.Offered() <= 32 {
			t.Fatalf("seed %d: pair reservoir never evicted", seed)
		}
		if n := len(tp.st.det.recs.ent); n > 48 {
			t.Errorf("seed %d: %d record slots, bound 48", seed, n)
		}
		if n := len(tp.st.watch.ent); n > 3*32 {
			t.Errorf("seed %d: %d watcher slots, bound %d", seed, n, 3*32)
		}
		fc, err := NewTwoPassFourCycle(FourCycleConfig{SampleSize: 48, WedgeCap: 32, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		stream.Run(s, fc)
		if fc.WedgesFormed() <= 32 {
			t.Fatalf("seed %d: wedge reservoir never evicted", seed)
		}
		if n := len(fc.wedges.ent); n > 32 {
			t.Errorf("seed %d: %d wedge slots, bound 32", seed, n)
		}
	}
}
