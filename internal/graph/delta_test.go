package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
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

// TestDeltaCopyOnWrite: Apply never writes into its base — every base row
// reads the same afterwards — and it copies the untouched rows in blocks,
// not vertex by vertex: staging and applying the same three ops allocates
// the same small constant at n = 100 and at n = 10,000.
func TestDeltaCopyOnWrite(t *testing.T) {
	base := MustFromEdges([]Edge{{0, 1}, {1, 2}, {3, 4}, {4, 5}})
	before := make(map[V][]V)
	for _, v := range base.Vertices() {
		before[v] = slices.Clone(base.Neighbors(v))
	}
	d := NewDelta(base)
	if err := d.Add(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := d.Remove(3, 4); err != nil {
		t.Fatal(err)
	}
	g := d.Apply()
	for v, want := range before {
		if got := base.Neighbors(v); !slices.Equal(got, want) {
			t.Errorf("base row %d = %v after Apply, want %v", v, got, want)
		}
	}
	if !g.HasEdge(0, 2) || g.HasEdge(3, 4) || base.HasEdge(0, 2) || !base.HasEdge(3, 4) {
		t.Error("Apply's graph and its base disagree on the staged edges")
	}

	allocs := func(n int) float64 {
		b := NewBuilder()
		for v := 1; v < n; v++ {
			_ = b.Add(V(v-1), V(v))
		}
		path := b.Graph()
		return testing.AllocsPerRun(20, func() {
			d := NewDelta(path)
			_ = d.Add(0, V(n)) // a new vertex
			_ = d.Add(V(n/2), V(n/2+2))
			_ = d.Remove(V(n-2), V(n-1))
			d.Apply()
		})
	}
	small, large := allocs(100), allocs(10_000)
	if small != large || large > 12 {
		t.Errorf("stage and Apply allocate %v times at n=100 and %v at n=10000, want the same constant ≤ 12", small, large)
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

// assertSameRows compares vertices, rows, M and MaxDegree, treating nil and
// empty lists alike.
func assertSameRows(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.M() != want.M() || got.MaxDegree() != want.MaxDegree() {
		t.Fatalf("shape: got m=%d maxD=%d, want m=%d maxD=%d", got.M(), got.MaxDegree(), want.M(), want.MaxDegree())
	}
	if !slices.Equal(got.Vertices(), want.Vertices()) {
		t.Fatalf("vertices: got %v, want %v", got.Vertices(), want.Vertices())
	}
	for _, v := range want.Vertices() {
		if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) {
			t.Fatalf("neighbors(%d): got %v, want %v", v, got.Neighbors(v), want.Neighbors(v))
		}
	}
}

// fuzzIDs is the vertex-id pool FuzzDeltaApplyMatchesRebuild draws from: a
// contiguous prefix (so some graphs hold exactly 0..n-1), scattered ids,
// ids at MaxV and, past fuzzValidIDs, two ids every op must reject.
var fuzzIDs = []V{0, 1, 2, 3, 4, 5, 9, 1 << 20, 1 << 31, MaxV - 1, MaxV, 6, -1, MaxV + 1}

const fuzzValidIDs = 12

// FuzzDeltaApplyMatchesRebuild is the differential oracle for Delta:
// fuzzer bytes decode into a small base graph (with isolated vertices and
// optionally a nil base) and 2–3 chained rounds of adds and removes. Every
// Add/Remove error is checked against a map model of the edge set, and
// every Apply against a Builder rebuild of the model: vertices, rows, M,
// MaxDegree, Triangles and FourCycles. The base of each round must come
// out of Apply unchanged.
func FuzzDeltaApplyMatchesRebuild(f *testing.F) {
	f.Add([]byte{3, 0x21, 0, 1, 1, 2, 2, 0, 0, 4, 0, 0, 3, 1, 1, 2, 0, 7, 8, 3, 1, 9, 10})
	f.Add([]byte{0x80, 0, 1, 5, 0, 10, 9, 0, 9, 8, 1, 10, 9, 0, 1, 2, 2, 0, 0, 1, 1, 0, 1})
	f.Add([]byte{6, 0xb7, 0, 1, 1, 2, 2, 3, 3, 0, 4, 5, 9, 10, 2, 6, 1, 0, 1, 1, 3, 4, 0, 6, 11, 0, 12, 3, 1, 13, 2, 3, 1, 9, 10, 0, 9, 10})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		head, iso := next(), next()
		var g *Graph
		present := make(map[Edge]bool)
		verts := make(map[V]bool)
		if head&0x80 == 0 {
			b := NewBuilder()
			for _, i := range []int{iso & 15, iso >> 4} {
				if i < fuzzValidIDs {
					b.AddVertex(fuzzIDs[i])
					verts[fuzzIDs[i]] = true
				}
			}
			for i := head % 24; i > 0; i-- {
				u, v := fuzzIDs[next()%fuzzValidIDs], fuzzIDs[next()%fuzzValidIDs]
				if b.AddIfAbsent(u, v) {
					present[Edge{u, v}.Norm()] = true
					verts[u], verts[v] = true, true
				}
			}
			g = b.Graph()
		}
		rounds := 2 + next()%2
		for r := 0; r < rounds; r++ {
			d := NewDelta(g)
			base := d.Base()
			baseEdges := base.Edges()
			for k := next() % 24; k > 0; k-- {
				op, u, v := next(), fuzzIDs[next()%len(fuzzIDs)], fuzzIDs[next()%len(fuzzIDs)]
				e := Edge{u, v}.Norm()
				valid := checkV(u) == nil && checkV(v) == nil
				if op&1 == 0 {
					want := valid && u != v && !present[e]
					if err := d.Add(u, v); (err == nil) != want {
						t.Fatalf("round %d: Add(%d,%d) err = %v, model wants ok=%v", r, u, v, err, want)
					}
					if want {
						present[e] = true
					}
				} else {
					want := valid && present[e]
					if err := d.Remove(u, v); (err == nil) != want {
						t.Fatalf("round %d: Remove(%d,%d) err = %v, model wants ok=%v", r, u, v, err, want)
					}
					if want {
						delete(present, e)
					}
				}
			}
			for _, v := range base.Vertices() {
				verts[v] = true
			}
			for e := range present {
				verts[e.U], verts[e.V] = true, true
			}
			want := NewBuilder()
			for v := range verts {
				want.AddVertex(v)
			}
			for e := range present {
				if err := want.Add(e.U, e.V); err != nil {
					t.Fatal(err)
				}
			}
			got := d.Apply()
			assertSameRows(t, got, want.Graph())
			if gt, wt := got.Triangles(), want.Graph().Triangles(); gt != wt {
				t.Fatalf("round %d: Triangles = %d, rebuild %d", r, gt, wt)
			}
			if gf, wf := got.FourCycles(), want.Graph().FourCycles(); gf != wf {
				t.Fatalf("round %d: FourCycles = %d, rebuild %d", r, gf, wf)
			}
			if !reflect.DeepEqual(base.Edges(), baseEdges) {
				t.Fatalf("round %d: Apply changed its base graph", r)
			}
			g = got
		}
	})
}
