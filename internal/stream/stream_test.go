package stream

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"adjstream/internal/graph"
)

func triangleGraph() *graph.Graph {
	return graph.MustFromEdges([]graph.Edge{{U: 1, V: 2}, {U: 2, V: 3}, {U: 1, V: 3}})
}

func randomGraph(n int, p float64, seed uint64) *graph.Graph {
	rng := rand.New(rand.NewPCG(seed, seed+1))
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				_ = b.Add(graph.V(i), graph.V(j))
			}
		}
	}
	return b.Graph()
}

func TestSortedStreamValid(t *testing.T) {
	g := triangleGraph()
	s := Sorted(g)
	if err := Validate(s.Items()); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 6 || s.M() != 3 || s.Lists() != 3 {
		t.Fatalf("Len=%d M=%d Lists=%d", s.Len(), s.M(), s.Lists())
	}
	order := s.ListOrder()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("ListOrder = %v", order)
	}
}

// TestSortedFromRowsMatchesItemBuilder checks the canonical stream, whose
// chunks Sorted writes straight from the graph's rows, against the row-form
// builder FromGraph uses (graphItems, then buildChunks): item for item,
// chunk for chunk, and the same Items, Lists and ListOrder. The graphs
// cover the empty graph (built and zero-value), isolated vertices,
// non-dense ids, ids at graph.MaxV, lists spanning and starting on chunk
// boundaries, and a graph out of Delta.Apply.
func TestSortedFromRowsMatchesItemBuilder(t *testing.T) {
	withIsolated := graph.NewBuilder()
	for _, v := range []graph.V{0, 7, 40, graph.MaxV} {
		withIsolated.AddVertex(v)
	}
	for _, e := range []graph.Edge{{U: 3, V: 9}, {U: 9, V: 1 << 31}, {U: 3, V: graph.MaxV - 1}} {
		_ = withIsolated.Add(e.U, e.V)
	}
	star := graph.NewBuilder() // the hub's list fills the second chunk: no run there
	for v := graph.V(1); v <= 2500; v++ {
		_ = star.Add(0, v*3)
	}
	aligned := graph.NewBuilder() // 3072 one-item lists: every chunk starts a list
	for v := graph.V(0); v < 1536; v++ {
		_ = aligned.Add(2*v, 2*v+1)
	}
	d := graph.NewDelta(randomGraph(120, 0.1, 9))
	for _, e := range []graph.Edge{{U: 0, V: 500}, {U: graph.MaxV, V: 3}, {U: 600, V: 601}} {
		if err := d.Add(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	graphs := map[string]*graph.Graph{
		"empty":      graph.NewBuilder().Graph(),
		"zero-value": {},
		"isolated-only": func() *graph.Graph {
			b := graph.NewBuilder()
			b.AddVertex(5)
			b.AddVertex(graph.MaxV)
			return b.Graph()
		}(),
		"with-isolated": withIsolated.Graph(),
		"maxv-edge":     graph.MustFromEdges([]graph.Edge{{U: graph.MaxV, V: graph.MaxV - 1}, {U: 0, V: graph.MaxV}}),
		"star":          star.Graph(),
		"aligned":       aligned.Graph(),
		"dense-random":  randomGraph(300, 0.05, 4),
		"applied":       d.Apply(),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			got := Sorted(g)
			items, lists, err := graphItems(g, g.Vertices())
			if err != nil {
				t.Fatal(err)
			}
			want := newStream(items, lists, g.M())
			if got.Len() != want.Len() || got.M() != want.M() || got.Lists() != want.Lists() {
				t.Fatalf("Len/M/Lists = %d/%d/%d, want %d/%d/%d",
					got.Len(), got.M(), got.Lists(), want.Len(), want.M(), want.Lists())
			}
			if !reflect.DeepEqual(got.Chunks(), want.Chunks()) {
				t.Fatalf("chunks differ:\n got %v\nwant %v", got.Chunks(), want.Chunks())
			}
			if !reflect.DeepEqual(got.Items(), want.Items()) {
				t.Fatal("Items differ")
			}
			if !reflect.DeepEqual(got.ListOrder(), want.ListOrder()) {
				t.Fatalf("ListOrder = %v, want %v", got.ListOrder(), want.ListOrder())
			}
		})
	}
}

func TestRandomStreamValid(t *testing.T) {
	g := randomGraph(30, 0.2, 5)
	for seed := uint64(0); seed < 5; seed++ {
		s := Random(g, seed)
		if err := Validate(s.Items()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if s.M() != g.M() {
			t.Fatalf("seed %d: M=%d want %d", seed, s.M(), g.M())
		}
	}
}

func TestRandomStreamsDiffer(t *testing.T) {
	g := randomGraph(30, 0.2, 5)
	a, b := Random(g, 1), Random(g, 2)
	same := len(a.Items()) == len(b.Items())
	if same {
		differs := false
		for i := range a.Items() {
			if a.Items()[i] != b.Items()[i] {
				differs = true
				break
			}
		}
		if !differs {
			t.Fatal("different seeds produced identical streams")
		}
	}
}

func TestRandomStreamDeterministic(t *testing.T) {
	g := randomGraph(20, 0.3, 9)
	a, b := Random(g, 7), Random(g, 7)
	for i := range a.Items() {
		if a.Items()[i] != b.Items()[i] {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestValidateRejectsNonContiguous(t *testing.T) {
	items := []Item{{1, 2}, {3, 1}, {1, 3}, {2, 1}, {3, 2}, {2, 3}}
	// List of 1 is split by list of 3.
	if err := Validate(items); err == nil {
		t.Fatal("expected contiguity violation")
	}
}

func TestValidateRejectsSingleAppearance(t *testing.T) {
	items := []Item{{1, 2}} // edge appears once
	if err := Validate(items); err == nil {
		t.Fatal("expected missing-reverse violation")
	}
}

func TestValidateRejectsSelfLoop(t *testing.T) {
	if err := Validate([]Item{{1, 1}, {1, 1}}); err == nil {
		t.Fatal("expected self-loop violation")
	}
}

func TestValidateRejectsDuplicateItem(t *testing.T) {
	items := []Item{{1, 2}, {1, 2}, {2, 1}, {2, 1}}
	if err := Validate(items); err == nil {
		t.Fatal("expected duplicate-item violation")
	}
}

func TestFromGraphRejectsBadOrder(t *testing.T) {
	g := triangleGraph()
	if _, err := FromGraph(g, []graph.V{1, 2}); err == nil {
		t.Fatal("expected error for missing vertex")
	}
	if _, err := FromGraph(g, []graph.V{1, 2, 3, 1}); err == nil {
		t.Fatal("expected error for repeated vertex")
	}
	if _, err := FromGraph(g, []graph.V{1, 2, 3, 99}); err == nil {
		t.Fatal("expected error for unknown vertex")
	}
}

func TestStreamGraphRoundTrip(t *testing.T) {
	g := randomGraph(25, 0.25, 11)
	s := Random(g, 3)
	g2, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g2.M() != g.M() || g2.N() != g.N() {
		t.Fatalf("round trip mismatch: m %d vs %d, n %d vs %d", g2.M(), g.M(), g2.N(), g.N())
	}
	for _, e := range g.Edges() {
		if !g2.HasEdge(e.U, e.V) {
			t.Fatalf("edge %v lost", e)
		}
	}
}

// recorder verifies driver callback sequencing.
type recorder struct {
	passes   int
	events   []string
	curOwner graph.V
	t        *testing.T
}

func (r *recorder) Passes() int     { return r.passes }
func (r *recorder) StartPass(p int) { r.events = append(r.events, "P") }
func (r *recorder) EndPass(p int)   { r.events = append(r.events, "p") }
func (r *recorder) StartList(v graph.V) {
	r.curOwner = v
	r.events = append(r.events, "L")
}
func (r *recorder) EndList(v graph.V) {
	if v != r.curOwner {
		r.t.Fatalf("EndList(%d) during list of %d", v, r.curOwner)
	}
	r.events = append(r.events, "l")
}
func (r *recorder) Edge(o, n graph.V) {
	if o != r.curOwner {
		r.t.Fatalf("Edge owner %d during list of %d", o, r.curOwner)
	}
	r.events = append(r.events, "e")
}

func TestDriverSequencing(t *testing.T) {
	g := triangleGraph()
	s := Sorted(g)
	r := &recorder{passes: 2, t: t}
	Run(s, r)
	got := strings.Join(r.events, "")
	want := "PLeelLeelLeelpPLeelLeelLeelp"
	if got != want {
		t.Fatalf("event sequence = %q, want %q", got, want)
	}
}

func TestRunOrdersChecksCounts(t *testing.T) {
	g := triangleGraph()
	r := &recorder{passes: 2, t: t}
	if err := RunOrders([]*Stream{Sorted(g)}, r); err == nil {
		t.Fatal("expected pass-count mismatch error")
	}
	g2 := graph.MustFromEdges([]graph.Edge{{U: 1, V: 2}})
	if err := RunOrders([]*Stream{Sorted(g), Sorted(g2)}, r); err == nil {
		t.Fatal("expected edge-count mismatch error")
	}
	if err := RunOrders([]*Stream{Sorted(g), Random(g, 1)}, &recorder{passes: 2, t: t}); err != nil {
		t.Fatal(err)
	}
}

func TestTextRoundTrip(t *testing.T) {
	g := randomGraph(15, 0.3, 2)
	s := Random(g, 4)
	var buf bytes.Buffer
	if err := WriteText(&buf, s); err != nil {
		t.Fatal(err)
	}
	s2, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != s.Len() {
		t.Fatalf("len %d vs %d", s2.Len(), s.Len())
	}
	for i := range s.Items() {
		if s.Items()[i] != s2.Items()[i] {
			t.Fatalf("item %d differs", i)
		}
	}
}

func TestReadTextRejectsGarbage(t *testing.T) {
	cases := []string{
		"1\n",        // one field
		"a b\n",      // non-numeric
		"1 b\n",      // non-numeric neighbor
		"1 2\n",      // invalid stream (single appearance)
		"1 1\n1 1\n", // self loop
	}
	for _, c := range cases {
		if _, err := ReadText(strings.NewReader(c)); err == nil {
			t.Fatalf("expected error for %q", c)
		}
	}
}

func TestReadTextSkipsComments(t *testing.T) {
	in := "# comment\n\n1 2\n1 3\n2 1\n2 3\n3 1\n3 2\n"
	s, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.M() != 3 {
		t.Fatalf("M = %d, want 3", s.M())
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := randomGraph(20, 0.3, 8)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.M() != g.M() {
		t.Fatalf("M %d vs %d", g2.M(), g.M())
	}
}

func TestReadEdgeListToleratesDuplicates(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("1 2\n2 1\n1 2\n1 1\n# c\n2 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
}

// Property: any random order of any random graph yields a valid stream
// whose reconstruction equals the source graph.
func TestRandomOrderAlwaysValidQuick(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(12, 0.4, seed%256+1)
		if g.M() == 0 {
			return true
		}
		s := Random(g, seed)
		if Validate(s.Items()) != nil {
			return false
		}
		g2, err := s.Graph()
		if err != nil {
			return false
		}
		return g2.M() == g.M() && g2.Triangles() == g.Triangles()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
