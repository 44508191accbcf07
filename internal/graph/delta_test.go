package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// rebuildWithOps is the delta oracle: reconstruct the post-delta graph from
// scratch through the Builder.
func rebuildWithOps(t *testing.T, base *Graph, add, remove []Edge) *Graph {
	t.Helper()
	b := NewBuilder()
	removed := make(map[Edge]bool, len(remove))
	for _, e := range remove {
		removed[e.Norm()] = true
	}
	for _, v := range base.Vertices() {
		b.AddVertex(v)
	}
	for _, e := range base.Edges() {
		if !removed[e] {
			if err := b.Add(e.U, e.V); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, e := range add {
		if err := b.Add(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	return b.Graph()
}

// assertSameGraph compares full adjacency structure and derived counters.
func assertSameGraph(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() || got.MaxDegree() != want.MaxDegree() {
		t.Fatalf("shape: got n=%d m=%d maxD=%d, want n=%d m=%d maxD=%d",
			got.N(), got.M(), got.MaxDegree(), want.N(), want.M(), want.MaxDegree())
	}
	if !reflect.DeepEqual(got.Vertices(), want.Vertices()) {
		t.Fatalf("vertex order: got %v, want %v", got.Vertices(), want.Vertices())
	}
	for _, v := range want.Vertices() {
		if !reflect.DeepEqual(got.Neighbors(v), want.Neighbors(v)) {
			t.Fatalf("neighbors(%d): got %v, want %v", v, got.Neighbors(v), want.Neighbors(v))
		}
	}
}

func TestDeltaApplyMatchesRebuild(t *testing.T) {
	base := MustFromEdges([]Edge{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}})
	d := NewDelta(base)
	adds := []Edge{{0, 3}, {4, 5}, {5, 6}}
	removes := []Edge{{1, 2}, {3, 4}}
	for _, e := range adds {
		if err := d.Add(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range removes {
		if err := d.Remove(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	if d.Ops() != 5 || d.Adds() != 3 || d.Removes() != 2 {
		t.Fatalf("ops = %d (%d adds, %d removes), want 5 (3, 2)", d.Ops(), d.Adds(), d.Removes())
	}
	got := d.Apply()
	want := rebuildWithOps(t, base, adds, removes)
	assertSameGraph(t, got, want)

	// The base graph is untouched.
	if base.M() != 5 || !base.HasEdge(1, 2) || base.HasEdge(0, 3) {
		t.Errorf("base graph mutated: m=%d", base.M())
	}
	// Derived quantities recompute lazily on the merged graph, matching a
	// cold rebuild.
	if got.WedgeCount() != want.WedgeCount() || got.Triangles() != want.Triangles() {
		t.Errorf("derived quantities: wedges %d/%d triangles %d/%d",
			got.WedgeCount(), want.WedgeCount(), got.Triangles(), want.Triangles())
	}
}

func TestDeltaValidation(t *testing.T) {
	base := MustFromEdges([]Edge{{0, 1}, {1, 2}})
	d := NewDelta(base)
	if err := d.Add(0, 0); err == nil {
		t.Error("self-loop accepted")
	}
	if err := d.Add(1, 0); err == nil {
		t.Error("duplicate of base edge accepted")
	}
	if err := d.Remove(0, 2); err == nil {
		t.Error("removal of absent edge accepted")
	}
	for _, bad := range []V{-1, MaxV + 1} {
		if err := d.Add(0, bad); err == nil {
			t.Errorf("add of out-of-range id %d accepted", bad)
		}
		if err := d.Remove(bad, 0); err == nil {
			t.Errorf("removal of out-of-range id %d accepted", bad)
		}
	}
	if d.Ops() != 0 {
		t.Errorf("rejected ops staged %d changes", d.Ops())
	}
	if err := d.Add(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := d.Add(2, 0); err == nil {
		t.Error("duplicate of staged add accepted")
	}
	if err := d.Remove(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.Remove(0, 1); err == nil {
		t.Error("double removal accepted")
	}
	if !d.Present(0, 2) || d.Present(0, 1) || !d.Present(1, 2) {
		t.Error("Present disagrees with staged view")
	}
}

// TestDeltaCancelingOps: add-then-remove and remove-then-add pairs are
// exact inverses, leaving the delta (and the applied graph) unchanged.
func TestDeltaCancelingOps(t *testing.T) {
	base := MustFromEdges([]Edge{{0, 1}, {1, 2}})
	d := NewDelta(base)
	if err := d.Add(5, 6); err != nil {
		t.Fatal(err)
	}
	if err := d.Remove(5, 6); err != nil {
		t.Fatal(err)
	}
	if err := d.Remove(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.Add(0, 1); err != nil {
		t.Fatal(err)
	}
	if !d.Empty() || d.Ops() != 0 {
		t.Fatalf("canceled pairs left ops=%d empty=%v", d.Ops(), d.Empty())
	}
	assertSameGraph(t, d.Apply(), base)
}

// TestDeltaCopyOnWrite: untouched vertices share their neighbor slices with
// the base graph — the merge must not deep-copy the whole adjacency.
func TestDeltaCopyOnWrite(t *testing.T) {
	base := MustFromEdges([]Edge{{0, 1}, {1, 2}, {3, 4}, {4, 5}})
	d := NewDelta(base)
	if err := d.Add(0, 2); err != nil {
		t.Fatal(err)
	}
	g := d.Apply()
	// Vertices 3,4,5 are untouched: their slices must alias the base's.
	for _, v := range []V{3, 4, 5} {
		bp := unsafe.SliceData(base.Neighbors(v))
		gp := unsafe.SliceData(g.Neighbors(v))
		if bp != gp {
			t.Errorf("vertex %d: neighbor slice was copied, want shared", v)
		}
	}
	// Touched vertices get fresh slices.
	if unsafe.SliceData(base.Neighbors(0)) == unsafe.SliceData(g.Neighbors(0)) {
		t.Error("touched vertex 0 shares its slice with the base")
	}
}

func TestDeltaSpentPanics(t *testing.T) {
	d := NewDelta(MustFromEdges([]Edge{{0, 1}}))
	if err := d.Add(1, 2); err != nil {
		t.Fatal(err)
	}
	d.Apply()
	defer func() {
		if recover() == nil {
			t.Error("Add after Apply did not panic")
		}
	}()
	_ = d.Add(2, 3)
}

func TestDeltaNilAndEmptyBase(t *testing.T) {
	d := NewDelta(nil)
	if err := d.Add(7, 9); err != nil {
		t.Fatal(err)
	}
	g := d.Apply()
	if g.N() != 2 || g.M() != 1 || !g.HasEdge(7, 9) {
		t.Fatalf("graph from nil base: n=%d m=%d", g.N(), g.M())
	}
}

// TestDeltaRandomizedAgainstRebuild drives long random op sequences over
// evolving bases (chaining Apply → NewDelta) and checks every merged graph
// — structure and exact kernels — against the from-scratch rebuild.
func TestDeltaRandomizedAgainstRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := randomGraph(30, 0.12, 42)
	for round := 0; round < 8; round++ {
		d := NewDelta(g)
		var adds, removes []Edge
		for op := 0; op < 40; op++ {
			u := V(rng.Intn(34))
			v := V(rng.Intn(34))
			if u == v {
				continue
			}
			if d.Present(u, v) {
				if rng.Intn(2) == 0 {
					if err := d.Remove(u, v); err != nil {
						t.Fatal(err)
					}
					removes = append(removes, Edge{u, v}.Norm())
				}
			} else if err := d.Add(u, v); err == nil {
				adds = append(adds, Edge{u, v}.Norm())
			}
		}
		// Net effect of the op log (an edge may bounce in and out).
		net := make(map[Edge]int)
		for _, e := range adds {
			net[e]++
		}
		for _, e := range removes {
			net[e]--
		}
		var netAdd, netCut []Edge
		for e, n := range net {
			switch {
			case n > 0:
				netAdd = append(netAdd, e)
			case n < 0:
				netCut = append(netCut, e)
			}
		}
		want := rebuildWithOps(t, g, netAdd, netCut)
		got := d.Apply()
		assertSameGraph(t, got, want)
		if gt, wt := got.Triangles(), want.Triangles(); gt != wt {
			t.Fatalf("round %d: triangles %d != rebuild %d", round, gt, wt)
		}
		if gf, wf := got.FourCycles(), want.FourCycles(); gf != wf {
			t.Fatalf("round %d: four-cycles %d != rebuild %d", round, gf, wf)
		}
		g = got
	}
}
