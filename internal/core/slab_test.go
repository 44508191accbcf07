package core

// White-box checks of the slab invariants the estimators' bit-identity and
// memory bounds rest on: record lists keep insertion order across removals
// and slot reuse, a ref to a removed record stays dead after its slot is
// reused, a bag entry always sits at its recorded index in both lists, a
// retired record stays alive and untouched, and under eviction every slab
// stays within its bound.

import (
	"math/rand/v2"
	"slices"
	"testing"

	"adjstream/internal/gen"
	"adjstream/internal/graph"
	"adjstream/internal/stream"
)

func listOf[T any](s *slab[T], v graph.V) []int32 {
	e := s.lists.find(v)
	if e == nil {
		return nil
	}
	return slices.Clone(s.lists.ids(e[s.kind]))
}

func TestSlabListsKeepInsertionOrderAcrossReuse(t *testing.T) {
	var lists vertexLists
	var s slab[int]
	s.init(&lists, 0)
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
	var s slab[int]
	s.init(&lists, 0)
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

// queueProbe records the longest the pending-base queue of a
// TwoPassTriangle gets.
type queueProbe struct {
	*TwoPassTriangle
	longest int
}

func (p *queueProbe) EndList(v graph.V) {
	p.TwoPassTriangle.EndList(v)
	p.longest = max(p.longest, len(p.st.pending))
}

func (p *queueProbe) EndPass(pass int) {
	p.TwoPassTriangle.EndPass(pass)
	p.longest = max(p.longest, len(p.st.pending))
}

// With both the bottom-k sample and the pair and wedge reservoirs evicting,
// record, watcher, load and wedge slabs and the pending-base queue stay
// within k, 3·PairCap and WedgeCap.
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
		probe := &queueProbe{TwoPassTriangle: tp}
		stream.Run(s, probe)
		if tp.pairs.Offered() <= 32 {
			t.Fatalf("seed %d: pair reservoir never evicted", seed)
		}
		if n := len(tp.st.det.recs.ent); n > 48 {
			t.Errorf("seed %d: %d record slots, bound 48", seed, n)
		}
		if n := len(tp.st.watch); n > 3*32 {
			t.Errorf("seed %d: %d watcher slots, bound %d", seed, n, 3*32)
		}
		if n := len(tp.st.shared.ent); n > 3*32 {
			t.Errorf("seed %d: %d load slots, bound %d", seed, n, 3*32)
		}
		if probe.longest == 0 || probe.longest > 3*32 {
			t.Errorf("seed %d: pending-base queue peaked at %d, want 1..%d", seed, probe.longest, 3*32)
		}
		if n := len(tp.st.pending); n != 0 {
			t.Errorf("seed %d: %d bases still pending after the run", seed, n)
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

// Random puts and swap-removals over a few vertices, checked after every
// operation against a map of the live entries: every live entry sits in
// both endpoints' lists at its recorded index, each list holds exactly the
// entries on that vertex, and a vertex with none keeps no slot.
func TestBagSwapRemovalMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	var lists vertexLists
	var b bag[int]
	b.init(&lists, 1)
	live := make(map[int32][2]graph.V)
	var ids, free []int32 // ids: the keys of live
	for op := 0; op < 4000; op++ {
		if len(ids) > 0 && rng.IntN(5) < 2 {
			i := rng.IntN(len(ids))
			id := ids[i]
			ids[i] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
			b.remove(id)
			delete(live, id)
			free = append(free, id)
		} else {
			x, y := graph.V(rng.IntN(8)), graph.V(rng.IntN(8))
			if x == y {
				continue
			}
			id := int32(len(b.ent))
			if n := len(free); n > 0 {
				id, free = free[n-1], free[:n-1]
			}
			b.put(id, x, y, op)
			live[id] = [2]graph.V{x, y}
			ids = append(ids, id)
		}
		perVertex := make(map[graph.V]int)
		for id, at := range live {
			n := &b.ent[id]
			for side, v := range at {
				perVertex[v]++
				e := lists.find(v)
				if e == nil || n.idx[side] >= e[1].n || lists.ids(e[1])[n.idx[side]] != id {
					t.Fatalf("op %d: entry %d not at its index %d in the list of %d", op, id, n.idx[side], v)
				}
			}
		}
		for v := graph.V(0); v < 8; v++ {
			e := lists.find(v)
			if perVertex[v] == 0 {
				if e != nil {
					t.Fatalf("op %d: vertex %d kept a slot with no entries", op, v)
				}
				continue
			}
			if e == nil || int(e[1].n) != perVertex[v] {
				t.Fatalf("op %d: list of %d has the wrong length, want %d", op, v, perVertex[v])
			}
		}
		if b.live != len(live) {
			t.Fatalf("op %d: live = %d, want %d", op, b.live, len(live))
		}
	}
}

// retireProbe checks, as each list of pass two starts, that the records
// TwoPassTriangle retires are exactly those on the owner's list, all with
// posFirst at that list, and keeps the epoch each was last touched in.
type retireProbe struct {
	*TwoPassTriangle
	t       *testing.T
	retired map[int32]uint32 // record slot → epoch of its last touch
}

func (p *retireProbe) StartList(owner graph.V) {
	var onList []int32
	if p.pass == 1 {
		onList = listOf(&p.st.det.recs, owner)
	}
	p.TwoPassTriangle.StartList(owner)
	if p.pass != 1 {
		return
	}
	recs := &p.st.det.recs
	for id := range recs.ent {
		if recs.ent[id].val.posFirst == p.pos && recs.ent[id].linked && !slices.Contains(onList, int32(id)) {
			p.t.Fatalf("record %d has posFirst %d but was not on the list of %d", id, p.pos, owner)
		}
	}
	for _, id := range onList {
		if recs.ent[id].val.posFirst != p.pos {
			p.t.Fatalf("record %d on the list of %d has posFirst %d, not %d", id, owner, recs.ent[id].val.posFirst, p.pos)
		}
		p.retired[id] = recs.ent[id].epoch
	}
	if len(listOf(&p.st.det.recs, owner)) != 0 {
		p.t.Fatalf("the list of %d still holds records after retirement", owner)
	}
}

// A retired record stays alive, on no list, and is never touched again.
func TestRetiredRecordsStayAliveAndUntouched(t *testing.T) {
	g, err := gen.ErdosRenyi(50, 0.25, 9)
	if err != nil {
		t.Fatal(err)
	}
	s := stream.Random(g, 2)
	for _, cfg := range []TriangleConfig{
		{SampleProb: 1, PairCap: 64, Seed: 1},
		{SampleSize: 80, PairCap: 32, Seed: 2},
	} {
		tp, err := NewTwoPassTriangle(cfg)
		if err != nil {
			t.Fatal(err)
		}
		probe := &retireProbe{TwoPassTriangle: tp, t: t, retired: make(map[int32]uint32)}
		stream.Run(s, probe)
		recs := &tp.st.det.recs
		if len(probe.retired) != tp.SampledEdges() || recs.live != tp.SampledEdges() {
			t.Fatalf("%+v: %d records retired, %d live, want all %d sampled edges",
				cfg, len(probe.retired), recs.live, tp.SampledEdges())
		}
		for id, epoch := range probe.retired {
			if !recs.alive(recs.ref(id)) {
				t.Fatalf("%+v: retired record %d reads dead", cfg, id)
			}
			if recs.ent[id].epoch != epoch {
				t.Fatalf("%+v: retired record %d was touched after retirement", cfg, id)
			}
		}
		for _, rs := range recs.lists.runs {
			if rs[0].n != 0 {
				t.Fatalf("%+v: records left on a list after pass two", cfg)
			}
		}
	}
}
