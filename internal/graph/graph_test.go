package graph

import (
	"context"
	"errors"
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"
)

func path(n int) *Graph {
	b := NewBuilder()
	for i := 0; i < n-1; i++ {
		if err := b.Add(V(i), V(i+1)); err != nil {
			panic(err)
		}
	}
	return b.Graph()
}

func cycle(n int) *Graph {
	b := NewBuilder()
	for i := 0; i < n; i++ {
		if err := b.Add(V(i), V((i+1)%n)); err != nil {
			panic(err)
		}
	}
	return b.Graph()
}

func complete(n int) *Graph {
	b := NewBuilder()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if err := b.Add(V(i), V(j)); err != nil {
				panic(err)
			}
		}
	}
	return b.Graph()
}

func completeBipartite(a, b int) *Graph {
	bld := NewBuilder()
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			if err := bld.Add(V(i), V(a+j)); err != nil {
				panic(err)
			}
		}
	}
	return bld.Graph()
}

// randomGraph returns an Erdős–Rényi-style graph for cross-validation tests.
func randomGraph(n int, p float64, seed uint64) *Graph {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	b := NewBuilder()
	for i := 0; i < n; i++ {
		b.AddVertex(V(i))
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				_ = b.Add(V(i), V(j))
			}
		}
	}
	return b.Graph()
}

// bruteTriangles counts triangles by checking all vertex triples.
func bruteTriangles(g *Graph) int64 {
	vs := g.Vertices()
	var t int64
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			if !g.HasEdge(vs[i], vs[j]) {
				continue
			}
			for k := j + 1; k < len(vs); k++ {
				if g.HasEdge(vs[i], vs[k]) && g.HasEdge(vs[j], vs[k]) {
					t++
				}
			}
		}
	}
	return t
}

// bruteFourCycles counts 4-cycles by checking all ordered 4-tuples once.
func bruteFourCycles(g *Graph) int64 {
	vs := g.Vertices()
	var t int64
	n := len(vs)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for k := j + 1; k < n; k++ {
				for l := k + 1; l < n; l++ {
					a, b, c, d := vs[i], vs[j], vs[k], vs[l]
					// Three distinct cyclic arrangements of 4 labeled
					// vertices: a-b-c-d, a-b-d-c, a-c-b-d.
					if isC4(g, a, b, c, d) {
						t++
					}
					if isC4(g, a, b, d, c) {
						t++
					}
					if isC4(g, a, c, b, d) {
						t++
					}
				}
			}
		}
	}
	return t
}

func isC4(g *Graph, a, b, c, d V) bool {
	return g.HasEdge(a, b) && g.HasEdge(b, c) && g.HasEdge(c, d) && g.HasEdge(d, a)
}

func TestBuilderRejectsSelfLoop(t *testing.T) {
	b := NewBuilder()
	if err := b.Add(1, 1); err == nil {
		t.Fatal("expected error for self-loop")
	}
}

func TestBuilderRejectsOutOfRangeIDs(t *testing.T) {
	b := NewBuilder()
	for _, bad := range []V{-1, MaxV + 1} {
		if err := b.Add(1, bad); err == nil {
			t.Errorf("Add(1, %d) accepted an id outside [0, MaxV]", bad)
		}
	}
	if err := b.Add(0, MaxV); err != nil {
		t.Fatalf("Add(0, MaxV): %v", err)
	}
}

func TestBuilderRejectsDuplicate(t *testing.T) {
	b := NewBuilder()
	if err := b.Add(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(2, 1); err == nil {
		t.Fatal("expected error for duplicate edge in reverse orientation")
	}
}

func TestAddIfAbsent(t *testing.T) {
	b := NewBuilder()
	if !b.AddIfAbsent(1, 2) {
		t.Fatal("first insert should succeed")
	}
	if b.AddIfAbsent(2, 1) {
		t.Fatal("duplicate insert should report false")
	}
	if b.AddIfAbsent(3, 3) {
		t.Fatal("self-loop insert should report false")
	}
	if b.M() != 1 {
		t.Fatalf("M = %d, want 1", b.M())
	}
}

func TestBasicAccessors(t *testing.T) {
	g := MustFromEdges([]Edge{{1, 2}, {2, 3}, {1, 3}, {3, 4}})
	if g.N() != 4 {
		t.Errorf("N = %d, want 4", g.N())
	}
	if g.M() != 4 {
		t.Errorf("M = %d, want 4", g.M())
	}
	if g.Degree(3) != 3 {
		t.Errorf("Degree(3) = %d, want 3", g.Degree(3))
	}
	if g.MaxDegree() != 3 {
		t.Errorf("MaxDegree = %d, want 3", g.MaxDegree())
	}
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Error("HasEdge should hold in both orientations")
	}
	if g.HasEdge(1, 4) {
		t.Error("HasEdge(1,4) should be false")
	}
	if got := len(g.Edges()); got != 4 {
		t.Errorf("len(Edges) = %d, want 4", got)
	}
}

func TestIsolatedVertex(t *testing.T) {
	b := NewBuilder()
	b.AddVertex(7)
	_ = b.Add(1, 2)
	g := b.Graph()
	if g.N() != 3 {
		t.Fatalf("N = %d, want 3", g.N())
	}
	if !g.HasVertex(7) || g.Degree(7) != 0 {
		t.Fatal("isolated vertex lost")
	}
}

func TestEdgeNorm(t *testing.T) {
	if (Edge{5, 2}).Norm() != (Edge{2, 5}) {
		t.Fatal("Norm should swap")
	}
	if (Edge{2, 5}).Norm() != (Edge{2, 5}) {
		t.Fatal("Norm should be identity on canonical edges")
	}
}

func TestTriangleOpposite(t *testing.T) {
	tr := Triangle{1, 2, 3}
	cases := []struct {
		e Edge
		w V
	}{
		{Edge{1, 2}, 3}, {Edge{2, 1}, 3}, {Edge{1, 3}, 2}, {Edge{2, 3}, 1},
	}
	for _, c := range cases {
		if got := tr.Opposite(c.e); got != c.w {
			t.Errorf("Opposite(%v) = %d, want %d", c.e, got, c.w)
		}
	}
}

func TestTrianglesKnown(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int64
	}{
		{"K4", complete(4), 4},
		{"K5", complete(5), 10},
		{"K6", complete(6), 20},
		{"C5", cycle(5), 0},
		{"C3", cycle(3), 1},
		{"path10", path(10), 0},
		{"K33", completeBipartite(3, 3), 0},
	}
	for _, c := range cases {
		if got := c.g.Triangles(); got != c.want {
			t.Errorf("%s: Triangles = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestFourCyclesKnown(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int64
	}{
		{"C4", cycle(4), 1},
		{"C5", cycle(5), 0},
		{"K4", complete(4), 3},
		{"K5", complete(5), 15},
		{"K23", completeBipartite(2, 3), 3},
		{"K33", completeBipartite(3, 3), 9},
		{"path10", path(10), 0},
	}
	for _, c := range cases {
		if got := c.g.FourCycles(); got != c.want {
			t.Errorf("%s: FourCycles = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestTrianglesMatchesBruteForce(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		g := randomGraph(20, 0.3, seed)
		if got, want := g.Triangles(), bruteTriangles(g); got != want {
			t.Errorf("seed %d: Triangles = %d, brute = %d", seed, got, want)
		}
	}
}

func TestFourCyclesMatchesBruteForce(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		g := randomGraph(14, 0.35, seed)
		if got, want := g.FourCycles(), bruteFourCycles(g); got != want {
			t.Errorf("seed %d: FourCycles = %d, brute = %d", seed, got, want)
		}
	}
}

func TestForEachTriangleEnumeratesOnceSorted(t *testing.T) {
	g := randomGraph(25, 0.3, 42)
	seen := map[Triangle]bool{}
	g.ForEachTriangle(func(tr Triangle) {
		if !(tr.A < tr.B && tr.B < tr.C) {
			t.Fatalf("triangle not sorted: %+v", tr)
		}
		if seen[tr] {
			t.Fatalf("triangle enumerated twice: %+v", tr)
		}
		seen[tr] = true
		for _, e := range tr.Edges() {
			if !g.HasEdge(e.U, e.V) {
				t.Fatalf("triangle %+v uses non-edge %v", tr, e)
			}
		}
	})
	if int64(len(seen)) != g.Triangles() {
		t.Fatalf("enumerated %d, counted %d", len(seen), g.Triangles())
	}
}

func TestForEachFourCycleEnumeratesOnce(t *testing.T) {
	g := randomGraph(14, 0.35, 7)
	seen := map[FourCycle]bool{}
	var n int64
	g.ForEachFourCycle(func(c FourCycle) {
		n++
		if seen[c] {
			t.Fatalf("4-cycle enumerated twice: %+v", c)
		}
		seen[c] = true
		for _, e := range c.Edges() {
			if !g.HasEdge(e.U, e.V) {
				t.Fatalf("4-cycle %+v uses non-edge %v", c, e)
			}
		}
		if c.P >= c.Q || c.R >= c.S || c.P >= c.R {
			t.Fatalf("4-cycle not canonical: %+v", c)
		}
	})
	if n != g.FourCycles() {
		t.Fatalf("enumerated %d, counted %d", n, g.FourCycles())
	}
}

func TestTriangleLoadsSumTo3T(t *testing.T) {
	g := randomGraph(30, 0.25, 3)
	var sum int64
	for _, l := range g.TriangleLoads() {
		sum += l
	}
	if sum != 3*g.Triangles() {
		t.Fatalf("Σ loads = %d, want 3T = %d", sum, 3*g.Triangles())
	}
}

func TestFourCycleWedgeLoadsSumTo4T(t *testing.T) {
	g := randomGraph(14, 0.4, 9)
	var sum int64
	for _, l := range g.FourCycleWedgeLoads() {
		sum += l
	}
	if sum != 4*g.FourCycles() {
		t.Fatalf("Σ wedge loads = %d, want 4T = %d", sum, 4*g.FourCycles())
	}
}

func TestFourCycleEdgeLoadsSumTo4T(t *testing.T) {
	g := randomGraph(14, 0.4, 11)
	var sum int64
	for _, l := range g.FourCycleEdgeLoads() {
		sum += l
	}
	if sum != 4*g.FourCycles() {
		t.Fatalf("Σ edge loads = %d, want 4T = %d", sum, 4*g.FourCycles())
	}
}

func TestWedgeFourCycleCountMatchesLoads(t *testing.T) {
	g := randomGraph(14, 0.4, 13)
	for w, want := range g.FourCycleWedgeLoads() {
		if got := g.WedgeFourCycleCount(w); got != want {
			t.Fatalf("wedge %+v: count %d, loads %d", w, got, want)
		}
	}
}

// TestCountCyclesContextStopsAtDeadline: counting the 9-cycles of K70 would
// take years, most of it under the first start vertices, so only the
// in-search poll can stop it. The count must return the deadline's error
// promptly, inline and on the 4-worker pool (K70 has enough half-edges to
// shard); with a live context it must match CountCycles.
func TestCountCyclesContextStopsAtDeadline(t *testing.T) {
	g := complete(70)
	for _, workers := range []int{1, 4} {
		prev := SetMaxWorkers(workers)
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		start := time.Now()
		n, err := g.CountCyclesContext(ctx, 9)
		cancel()
		SetMaxWorkers(prev)
		if !errors.Is(err, context.DeadlineExceeded) || n != 0 {
			t.Fatalf("%d workers: CountCyclesContext = %d, %v; want 0, deadline exceeded", workers, n, err)
		}
		if el := time.Since(start); el > time.Second {
			t.Errorf("%d workers: returned after %v, want about the 50ms deadline", workers, el)
		}
	}
	h := randomGraph(40, 0.2, 5)
	for l := 3; l <= 6; l++ {
		got, err := h.CountCyclesContext(context.Background(), l)
		want, _ := h.CountCycles(l)
		if err != nil || got != want {
			t.Errorf("CountCyclesContext(%d) = %d, %v; want %d", l, got, err, want)
		}
	}
}

func TestCountCyclesKnown(t *testing.T) {
	for n := 3; n <= 8; n++ {
		g := cycle(n)
		for l := 3; l <= 8; l++ {
			got, err := g.CountCycles(l)
			if err != nil {
				t.Fatal(err)
			}
			want := int64(0)
			if l == n {
				want = 1
			}
			if got != want {
				t.Errorf("C%d: CountCycles(%d) = %d, want %d", n, l, got, want)
			}
		}
	}
	// K5 has C(5,3)=10 triangles, 15 4-cycles, 12 5-cycles.
	g := complete(5)
	for _, c := range []struct {
		l    int
		want int64
	}{{3, 10}, {4, 15}, {5, 12}} {
		got, err := g.CountCycles(c.l)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("K5: CountCycles(%d) = %d, want %d", c.l, got, c.want)
		}
	}
}

func TestCountCyclesRejectsShort(t *testing.T) {
	if _, err := complete(4).CountCycles(2); err == nil {
		t.Fatal("expected error for l < 3")
	}
	if _, err := complete(4).HasCycleOfLength(1); err == nil {
		t.Fatal("expected error for l < 3")
	}
}

func TestHasCycleOfLength(t *testing.T) {
	g := cycle(6)
	for l := 3; l <= 7; l++ {
		got, err := g.HasCycleOfLength(l)
		if err != nil {
			t.Fatal(err)
		}
		if got != (l == 6) {
			t.Errorf("C6: HasCycleOfLength(%d) = %v", l, got)
		}
	}
}

func TestGirthKnown(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int
	}{
		{"triangle", cycle(3), 3},
		{"C5", cycle(5), 5},
		{"C8", cycle(8), 8},
		{"path", path(10), 0},
		{"K33", completeBipartite(3, 3), 4},
		{"K4", complete(4), 3},
	}
	for _, c := range cases {
		if got := c.g.Girth(); got != c.want {
			t.Errorf("%s: Girth = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestWedgeCount(t *testing.T) {
	// Star K_{1,5}: P2 = C(5,2) = 10.
	b := NewBuilder()
	for i := 1; i <= 5; i++ {
		_ = b.Add(0, V(i))
	}
	if got := b.Graph().WedgeCount(); got != 10 {
		t.Fatalf("WedgeCount = %d, want 10", got)
	}
}

func TestTransitivity(t *testing.T) {
	if got := complete(4).Transitivity(); got != 1 {
		t.Fatalf("K4 transitivity = %v, want 1", got)
	}
	if got := path(5).Transitivity(); got != 0 {
		t.Fatalf("path transitivity = %v, want 0", got)
	}
	// Empty graph must not divide by zero.
	if got := NewBuilder().Graph().Transitivity(); got != 0 {
		t.Fatalf("empty transitivity = %v, want 0", got)
	}
}

func TestMaxTriangleLoad(t *testing.T) {
	// Book graph: edge {0,1} shared by 3 triangles.
	b := NewBuilder()
	_ = b.Add(0, 1)
	for i := 2; i <= 4; i++ {
		_ = b.Add(0, V(i))
		_ = b.Add(1, V(i))
	}
	if got := b.Graph().MaxTriangleLoad(); got != 3 {
		t.Fatalf("MaxTriangleLoad = %d, want 3", got)
	}
}

// Property: triangle count is invariant under relabeling vertices.
func TestTrianglesRelabelInvariantQuick(t *testing.T) {
	f := func(seed uint64, shift int64) bool {
		g := randomGraph(16, 0.3, seed%64+1)
		off := shift%1000 + 1000
		b := NewBuilder()
		for _, e := range g.Edges() {
			if err := b.Add(e.U+V(off), e.V+V(off)); err != nil {
				return false
			}
		}
		return g.Triangles() == b.Graph().Triangles()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: for any graph, Σ_e T(e) = 3T and max load ≤ T.
func TestTriangleLoadInvariantsQuick(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(18, 0.3, seed%128+1)
		total := g.Triangles()
		var sum, mx int64
		for _, l := range g.TriangleLoads() {
			sum += l
			if l > mx {
				mx = l
			}
		}
		return sum == 3*total && mx <= total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: CountCycles(3) and CountCycles(4) agree with the dedicated
// counters on random graphs.
func TestCountCyclesAgreesQuick(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(12, 0.35, seed%64+1)
		c3, err := g.CountCycles(3)
		if err != nil {
			return false
		}
		c4, err := g.CountCycles(4)
		if err != nil {
			return false
		}
		return c3 == g.Triangles() && c4 == g.FourCycles()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestLookupNegativeAndDenseIDs: the direct lookup for ids 0..n-1 must not
// capture other graphs whose last name is n-1, and a negative id can never
// become a name: the Builder refuses it, so lookups of it find nothing.
func TestLookupNegativeAndDenseIDs(t *testing.T) {
	b := NewBuilder()
	if b.AddIfAbsent(-1, 1) {
		t.Error("AddIfAbsent(-1, 1) accepted a negative id")
	}
	b.AddIfAbsent(1, 2)
	g := b.Graph()
	if g.HasVertex(-1) || g.HasEdge(-1, 1) || g.Degree(1) != 1 || g.HasVertex(0) {
		t.Errorf("names {1, 2}: HasVertex(-1)=%v HasEdge(-1,1)=%v Degree(1)=%d HasVertex(0)=%v",
			g.HasVertex(-1), g.HasEdge(-1, 1), g.Degree(1), g.HasVertex(0))
	}
	d := MustFromEdges([]Edge{{0, 1}, {1, 2}})
	if d.HasVertex(3) || d.HasVertex(-1) || d.Degree(1) != 2 || !d.HasEdge(2, 1) {
		t.Error("names 0..2: direct lookup wrong")
	}
}
