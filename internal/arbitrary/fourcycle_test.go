package arbitrary

import (
	"math"
	"testing"

	"adjstream/internal/gen"
	"adjstream/internal/graph"
	"adjstream/internal/plane"
	"adjstream/internal/stats"
)

// fourCycleFamilies returns the exact-kernel validation families: G(n,p),
// Chung–Lu, planted 4-cycles, and the C4-free projective-plane incidence
// graph (girth 6).
func fourCycleFamilies(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	er, err := gen.ErdosRenyi(60, 0.25, 2)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := gen.ChungLu(80, 2.2, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	planted := gen.PlantedFourCycles(40, 200)
	pl, err := plane.New(3)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := pl.IncidenceGraph(0, graph.V(pl.Size()))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{"er": er, "chunglu": cl, "planted": planted, "plane": inc}
}

func TestFourCycleExactAtFullSample(t *testing.T) {
	// p = 1 (and the default q = 1): every wedge is tracked with its full
	// multiplicity and every co-degree is exact, so both estimators return
	// the kernel count exactly — including 0 on the girth-6 plane.
	for name, g := range fourCycleFamilies(t) {
		truth := float64(g.FourCycles())
		s := FromGraph(g, 5)

		tp, err := NewThreePassFourCycle(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		Run(s, tp)
		if got := tp.Estimate(); got != truth {
			t.Fatalf("%s: three-pass estimate %v, want %v", name, got, truth)
		}
		if tp.M() != g.M() {
			t.Fatalf("%s: M = %d, want %d", name, tp.M(), g.M())
		}

		no, err := NewNearOptFourCycle(1, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		Run(s, no)
		if got := no.Estimate(); got != truth {
			t.Fatalf("%s: near-opt estimate %v, want %v", name, got, truth)
		}
	}
}

// TestFourCycleAccuracyFamilies is the (1±ε) acceptance check: at the
// sampling budget p = Θ(1/T^{1/4}) — the rate at which the expected number
// of sampled wedges per 4-cycle is Ω(1), i.e. the paper-prescribed space
// point for these graphs — the median of 9 independent copies lands within
// ε of the exact CSR kernel on every family. The C4-free plane is checked
// exactly: the closure sum has nothing to close, so the estimate is 0.
func TestFourCycleAccuracyFamilies(t *testing.T) {
	const eps = 0.25
	for name, g := range fourCycleFamilies(t) {
		truth := float64(g.FourCycles())
		s := FromGraph(g, 7)
		p := 0.5
		if truth > 0 {
			p = math.Min(1, 3/math.Pow(truth, 0.25))
		}
		for algName, build := range map[string]func(seed uint64) (Estimator, error){
			"threepass": func(seed uint64) (Estimator, error) { return NewThreePassFourCycle(p, seed) },
			"nearopt":   func(seed uint64) (Estimator, error) { return NewNearOptFourCycle(p, 0, seed) },
		} {
			var ests []float64
			for c := uint64(0); c < 9; c++ {
				alg, err := build(11 + c*0x9e37_79b9)
				if err != nil {
					t.Fatal(err)
				}
				Run(s, alg)
				ests = append(ests, alg.Estimate())
			}
			med := stats.Median(ests)
			if truth == 0 {
				if med != 0 {
					t.Fatalf("%s/%s: estimate %v on a C4-free graph", name, algName, med)
				}
				continue
			}
			if rel := math.Abs(med-truth) / truth; rel > eps {
				t.Fatalf("%s/%s: median %v, truth %v, rel err %.3f > %v (p=%v)",
					name, algName, med, truth, rel, eps, p)
			}
		}
	}
}

func TestThreePassFourCycleUnbiased(t *testing.T) {
	g, err := gen.ErdosRenyi(40, 0.3, 2)
	if err != nil {
		t.Fatal(err)
	}
	truth := float64(g.FourCycles())
	s := FromGraph(g, 9)
	var ests []float64
	for seed := uint64(0); seed < 300; seed++ {
		alg, err := NewThreePassFourCycle(0.4, seed*3+1)
		if err != nil {
			t.Fatal(err)
		}
		Run(s, alg)
		ests = append(ests, alg.Estimate())
	}
	if mean := stats.Mean(ests); math.Abs(mean-truth)/truth > 0.1 {
		t.Fatalf("mean %v, truth %v", mean, truth)
	}
}

func TestNearOptFourCycleUnbiased(t *testing.T) {
	g, err := gen.ErdosRenyi(40, 0.3, 2)
	if err != nil {
		t.Fatal(err)
	}
	truth := float64(g.FourCycles())
	s := FromGraph(g, 9)
	var ests []float64
	for seed := uint64(0); seed < 300; seed++ {
		alg, err := NewNearOptFourCycle(0.35, 0, seed*5+2)
		if err != nil {
			t.Fatal(err)
		}
		Run(s, alg)
		ests = append(ests, alg.Estimate())
	}
	if mean := stats.Mean(ests); math.Abs(mean-truth)/truth > 0.1 {
		t.Fatalf("mean %v, truth %v", mean, truth)
	}
}

func TestFourCycleValidation(t *testing.T) {
	for _, p := range []float64{0, -0.5, 1.5, math.NaN()} {
		if _, err := NewThreePassFourCycle(p, 1); err == nil {
			t.Errorf("three-pass p=%v should fail", p)
		}
		if _, err := NewNearOptFourCycle(p, 0.5, 1); err == nil {
			t.Errorf("near-opt p=%v should fail", p)
		}
	}
	if _, err := NewNearOptFourCycle(0.5, -0.1, 1); err == nil {
		t.Error("near-opt q<0 should fail")
	}
	if _, err := NewNearOptFourCycle(0.5, 1.5, 1); err == nil {
		t.Error("near-opt q>1 should fail")
	}
	// q = 0 selects the √p default.
	if _, err := NewNearOptFourCycle(0.25, 0, 1); err != nil {
		t.Errorf("default q: %v", err)
	}
}

func TestFourCycleSpaceGrowsWithP(t *testing.T) {
	g, err := gen.ErdosRenyi(60, 0.3, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := FromGraph(g, 1)
	for name, build := range map[string]func(p float64) (Estimator, error){
		"threepass": func(p float64) (Estimator, error) { return NewThreePassFourCycle(p, 5) },
		"nearopt":   func(p float64) (Estimator, error) { return NewNearOptFourCycle(p, 0, 5) },
	} {
		lo, err := build(0.1)
		if err != nil {
			t.Fatal(err)
		}
		Run(s, lo)
		hi, err := build(0.9)
		if err != nil {
			t.Fatal(err)
		}
		Run(s, hi)
		if lo.SpaceWords() <= 0 || hi.SpaceWords() <= lo.SpaceWords() {
			t.Fatalf("%s: space lo=%d hi=%d", name, lo.SpaceWords(), hi.SpaceWords())
		}
	}
}

// TestFourCycleExactCodegree checks every tracked pair's co-degree against
// the graph's |N(light) ∩ N(heavy)|, for both estimators, over several
// graphs, seeds and rates. Pass three counts each edge from the smaller of
// two sides, the heavy endpoint's pairs or the light vertices next to the
// other endpoint; the test also checks that both sides were taken, so each
// is pinned pair by pair rather than only through the estimate's sum.
func TestFourCycleExactCodegree(t *testing.T) {
	hub, err := gen.ChungLu(300, 2.1, 120, 4)
	if err != nil {
		t.Fatal(err)
	}
	graphs := fourCycleFamilies(t)
	graphs["hub"] = hub
	var fromPairs, fromLights int
	for name, g := range graphs {
		for _, p := range []float64{0.2, 0.5, 1} {
			s := FromGraph(g, 3)
			for seed := uint64(1); seed <= 2; seed++ {
				tp, err := NewThreePassFourCycle(p, seed)
				if err != nil {
					t.Fatal(err)
				}
				no, err := NewNearOptFourCycle(p, 0, seed)
				if err != nil {
					t.Fatal(err)
				}
				for alg, tr := range map[Estimator]*pairTracker{tp: &tp.tracker, no: &no.tracker} {
					Run(s, alg)
					for _, pr := range tr.pairs {
						if want := int64(g.CommonNeighbors(pr.light, pr.heavy)); pr.codeg != want {
							t.Fatalf("%s p=%v seed %d %T: pair {%d,%d} codeg %d, want %d",
								name, p, seed, alg, pr.light, pr.heavy, pr.codeg, want)
						}
					}
					for _, e := range s.Edges() {
						for _, ch := range [2][2]graph.V{{e.U, e.V}, {e.V, e.U}} {
							ids, lights := tr.byHeavy.row(ch[1]), tr.nbrOf.row(ch[0])
							switch {
							case len(ids) == 0 || len(lights) == 0:
							case len(ids) <= len(lights):
								fromPairs++
							default:
								fromLights++
							}
						}
					}
				}
			}
		}
	}
	if fromPairs == 0 || fromLights == 0 {
		t.Fatalf("pass three probed from the heavy endpoint's pairs %d times and from the light vertices %d times; want both", fromPairs, fromLights)
	}
}

// The pending-set orientation stores each tracked pair's neighbor set on
// the endpoint with the smaller sampled degree, so a star center (huge
// degree) must never own pending sets when paired against leaves.
func TestFourCyclePendingOnLightSide(t *testing.T) {
	// A star K_{1,40} plus one 4-cycle through the center: pairs involving
	// the hub orient the hub heavy.
	var edges []graph.Edge
	hub := graph.V(0)
	for i := graph.V(1); i <= 40; i++ {
		edges = append(edges, graph.Edge{U: hub, V: i})
	}
	edges = append(edges, graph.Edge{U: 1, V: 41}, graph.Edge{U: 41, V: 2})
	s, err := FromEdges(edges)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := NewThreePassFourCycle(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	Run(s, alg)
	for _, tp := range alg.tracker.pairs {
		if tp.light == hub {
			t.Fatalf("pair {%d,%d}: hub oriented light (pending set on the star center)", tp.light, tp.heavy)
		}
	}
	// One 4-cycle: hub–1–41–2–hub.
	if got := alg.Estimate(); got != 1 {
		t.Fatalf("estimate %v, want 1", got)
	}
}
