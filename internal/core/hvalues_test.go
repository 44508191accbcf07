package core

import (
	"testing"
	"testing/quick"

	"adjstream/internal/gen"
	"adjstream/internal/graph"
	"adjstream/internal/stream"
)

// referenceH computes H_{e,τ} from first principles: the number of
// triangles on e whose apex's adjacency list arrives strictly after τ's
// apex's list in the given stream.
func referenceH(g *graph.Graph, s *stream.Stream, e graph.Edge, apex graph.V) int64 {
	pos := make(map[graph.V]int)
	for i, v := range s.ListOrder() {
		pos[v] = i + 1
	}
	var h int64
	for _, w := range g.Neighbors(e.U) {
		if w == e.V {
			continue
		}
		if g.HasEdge(w, e.V) && pos[w] > pos[apex] {
			h++
		}
	}
	return h
}

// The two-pass algorithm's watcher counts must equal the definitionally
// computed H_{e,τ} for every collected pair and every edge of its triangle
// — the exact quantity Section 3 defines. Checked under full sampling so
// every (edge, triangle) pair is collected.
func TestWatcherCountsEqualDefinitionalH(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		g, err := gen.ErdosRenyi(14, 0.45, seed)
		if err != nil {
			t.Fatal(err)
		}
		s := stream.Random(g, seed*31)
		alg, err := NewTwoPassTriangle(TriangleConfig{SampleProb: 1, PairCap: 1 << 20, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		stream.Run(s, alg)
		if alg.pairs.Offered() != 3*g.Triangles() {
			t.Fatalf("seed %d: %d pairs, want %d", seed, alg.pairs.Offered(), 3*g.Triangles())
		}
		for j, pr := range alg.pairs.Items() {
			u, v := alg.st.edge(pr)
			a := pr.apex
			edges := [3]graph.Edge{
				{U: u, V: v},
				graph.Edge{U: u, V: a}.Norm(),
				graph.Edge{U: v, V: a}.Norm(),
			}
			apexes := [3]graph.V{a, v, u}
			for i := range edges {
				want := referenceH(g, s, edges[i], apexes[i])
				if got := alg.st.loads(j)[i]; got != want {
					t.Fatalf("seed %d: pair (%v, apex %d): H[%v] = %d, want %d",
						seed, edges[i], a, edges[i], got, want)
				}
			}
		}
	}
}

// Property form of the same check on smaller inputs.
func TestWatcherCountsEqualDefinitionalHQuick(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := gen.ErdosRenyi(10, 0.5, seed%256+1)
		if err != nil {
			return false
		}
		s := stream.Random(g, seed)
		alg, err := NewTwoPassTriangle(TriangleConfig{SampleProb: 1, PairCap: 1 << 20, Seed: 1})
		if err != nil {
			return false
		}
		stream.Run(s, alg)
		for j, pr := range alg.pairs.Items() {
			u, v := alg.st.edge(pr)
			a := pr.apex
			edges := [3]graph.Edge{
				{U: u, V: v},
				graph.Edge{U: u, V: a}.Norm(),
				graph.Edge{U: v, V: a}.Norm(),
			}
			apexes := [3]graph.V{a, v, u}
			for i := range edges {
				if alg.st.loads(j)[i] != referenceH(g, s, edges[i], apexes[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// A hand-built order with known H values: path-of-triangles sharing edge
// loads, list order fixed so H is computable by hand.
func TestHValuesHandExample(t *testing.T) {
	// Book with 3 pages: spine {0,1}, apexes 2,3,4. List order 0,1,2,3,4.
	g := gen.Book(3)
	s := stream.Sorted(g)
	alg, err := NewTwoPassTriangle(TriangleConfig{SampleProb: 1, PairCap: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	stream.Run(s, alg)
	// For the spine {0,1} and triangle with apex 2 (position 3): apexes 3
	// and 4 arrive later → H = 2. Apex 3 → H = 1. Apex 4 → H = 0.
	wantSpine := map[graph.V]int64{2: 2, 3: 1, 4: 0}
	found := 0
	for j, pr := range alg.pairs.Items() {
		if u, v := alg.st.edge(pr); u == 0 && v == 1 {
			if got := alg.st.loads(j)[0]; got != wantSpine[pr.apex] {
				t.Fatalf("spine H for apex %d = %d, want %d", pr.apex, got, wantSpine[pr.apex])
			}
			found++
		}
	}
	if found != 3 {
		t.Fatalf("found %d spine pairs, want 3", found)
	}
	// ρ must pick a side edge (H = 0 there, spine ties only at apex 4);
	// the estimate is exact regardless.
	if alg.Estimate() != 3 {
		t.Fatalf("estimate = %v", alg.Estimate())
	}
}
