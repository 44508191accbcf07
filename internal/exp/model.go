package exp

import (
	"fmt"
	"math"

	"adjstream/internal/arbitrary"
	"adjstream/internal/core"
	"adjstream/internal/gen"
	"adjstream/internal/graph"
	"adjstream/internal/stats"
	"adjstream/internal/stream"
)

// starredWorkload plants T disjoint triangles plus one star of the given
// degree: the star inflates P2 (the wedge count) without touching m much or
// T at all — the structure that separates the two streaming models.
func starredWorkload(T, starDeg int) (*graph.Graph, error) {
	b := graph.NewBuilder()
	for i := 0; i < T; i++ {
		v := graph.V(3 * i)
		if err := b.Add(v, v+1); err != nil {
			return nil, err
		}
		if err := b.Add(v+1, v+2); err != nil {
			return nil, err
		}
		if err := b.Add(v, v+2); err != nil {
			return nil, err
		}
	}
	hub := graph.V(3 * T)
	for i := 1; i <= starDeg; i++ {
		if err := b.Add(hub, hub+graph.V(i)); err != nil {
			return nil, err
		}
	}
	g := b.Graph()
	if got := g.Triangles(); got != int64(T) {
		return nil, fmt.Errorf("exp: starred workload has %d triangles, want %d", got, T)
	}
	return g, nil
}

// ModelComparison (M1) contrasts the two streaming models on star-inflated
// workloads: the arbitrary-order two-pass wedge estimator must store the
// wedges inside its edge sample, so its space requirement scales with P2;
// the adjacency-list two-pass algorithm of Theorem 3.7 never materializes
// wedges and is untouched by the star. This is the operational content of
// the paper's model choice.
func ModelComparison(seed uint64) (*Table, error) {
	t := &Table{
		ID:     "M1",
		Title:  "Adjacency-list vs arbitrary-order model: required space as P2 grows",
		Claim:  "the adjacency-list promise makes triangle counting independent of the wedge count P2 (cf. §1.1)",
		Header: []string{"star degree", "m", "P2", "T", "AL 2-pass space (words)", "AO 2-pass space (words)"},
	}
	const T = 256
	var p2s, aoSpaces []float64
	for _, starDeg := range []int{200, 800, 3200} {
		g, err := starredWorkload(T, starDeg)
		if err != nil {
			return nil, err
		}
		// Adjacency-list model at a fixed, accuracy-sufficient budget.
		alStream := stream.Random(g, seed)
		alReq, err := requiredBudget(alStream, T, g.M(), searchTrials, targetRelErr, func(b int, sd uint64) (stream.Estimator, error) {
			return core.NewTwoPassTriangle(core.TriangleConfig{SampleSize: b, PairCap: 8 * b, Seed: sd + seed})
		})
		if err != nil {
			return nil, err
		}
		alSpace, err := alSpaceAt(alStream, alReq, seed)
		if err != nil {
			return nil, err
		}
		// Arbitrary-order model: smallest sampling rate achieving the same
		// guarantee; report its measured space (edges + wedges).
		aoStream := arbitrary.FromGraph(g, seed)
		aoSpace, err := arbRequiredSpace(aoStream, T, searchTrials, targetRelErr, seed)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			d(int64(starDeg)), d(g.M()), d(g.WedgeCount()), d(int64(T)),
			d(alSpace), d(aoSpace),
		})
		p2s = append(p2s, float64(g.WedgeCount()))
		aoSpaces = append(aoSpaces, float64(aoSpace))
	}
	e, _ := stats.FitPowerLaw(p2s, aoSpaces)
	t.Notes = append(t.Notes, fmt.Sprintf(
		"*Arbitrary-order required space grows with P2 (fitted exponent %.2f); the adjacency-list column is flat — the model's promise at work.*", e))
	return t, nil
}

// alSpaceAt measures the adjacency-list estimator's space at budget b.
func alSpaceAt(s *stream.Stream, b int, seed uint64) (int64, error) {
	alg, err := core.NewTwoPassTriangle(core.TriangleConfig{SampleSize: b, PairCap: 8 * b, Seed: seed + 1})
	if err != nil {
		return 0, err
	}
	runCopies(s, []stream.Estimator{alg})
	return alg.SpaceWords(), nil
}

// FourCycleModelComparison (M3) A/Bs 4-cycle counting across the model
// axis: the paper's two-pass adjacency-list estimator (Theorem 4.6, an
// O(1)-approximation at m′ = Θ(m/T^{3/8})) against the two three-pass
// arbitrary-order estimators — Vorotnikova's improved algorithm and the
// Lüderssen–Neumann–Peng near-optimal variant — at the wedge-sampling rate
// p = Θ(1/T^{1/4}). The arbitrary-order pair buys a (1±ε) guarantee that
// the two-pass adjacency-list algorithm does not give, at the price of one
// extra pass and no use of the list promise; the table shows both sides of
// that trade on the same workloads.
func FourCycleModelComparison(seed uint64) (*Table, error) {
	t := &Table{
		ID:    "M3",
		Title: "4-cycle estimation across the model axis: AL 2-pass vs arbitrary-order 3-pass",
		Claim: "three arbitrary-order passes give (1±ε) 4-cycle estimates where two adjacency-list passes give O(1)-approximation (Theorem 4.6 vs arXiv 2007.13466/2604.00828)",
		Header: []string{
			"T (C4)", "m",
			"AL 2p rel err", "AL space",
			"AO-V 3p rel err", "AO-V space",
			"AO-LNP 3p rel err", "AO-LNP space",
		},
	}
	const trials = 15
	for _, k := range []int{5, 8, 12} {
		g, err := gen.BipartiteButterflies(300, 60, k, seed)
		if err != nil {
			return nil, err
		}
		T := float64(g.FourCycles())

		// Adjacency-list side: Theorem 4.6 at its prescribed budget.
		b := budget(10, g.M(), T, 3.0/8.0, 8)
		alStream := stream.Random(g, seed)
		alEsts := make([]stream.Estimator, trials)
		for i := range alEsts {
			alg, err := core.NewTwoPassFourCycle(core.FourCycleConfig{SampleSize: b, WedgeCap: 4 * b, Seed: seed + uint64(i)*37})
			if err != nil {
				return nil, err
			}
			alEsts[i] = alg
		}
		runCopies(alStream, alEsts)
		var alErrs []float64
		var alSpace int64
		for _, e := range alEsts {
			alErrs = append(alErrs, relErr(e.Estimate(), T))
			if sp := e.SpaceWords(); sp > alSpace {
				alSpace = sp
			}
		}

		// Arbitrary-order side: both three-pass estimators at the rate
		// where the expected number of surviving wedges per 4-cycle is
		// Ω(1) — the space point the (1±ε) analyses prescribe.
		p := math.Min(1, 3/math.Pow(T, 0.25))
		aoStream := arbitrary.FromGraph(g, seed)
		measure := func(mk func(seed uint64) (arbitrary.Estimator, error)) (float64, int64, error) {
			var errs []float64
			var space int64
			for i := 0; i < trials; i++ {
				alg, err := mk(seed + uint64(i)*0x51ed + 97)
				if err != nil {
					return 0, 0, err
				}
				arbitrary.Run(aoStream, alg)
				errs = append(errs, relErr(alg.Estimate(), T))
				if sp := alg.SpaceWords(); sp > space {
					space = sp
				}
			}
			return median(errs), space, nil
		}
		vErr, vSpace, err := measure(func(sd uint64) (arbitrary.Estimator, error) {
			return arbitrary.NewThreePassFourCycle(p, sd)
		})
		if err != nil {
			return nil, err
		}
		lnpErr, lnpSpace, err := measure(func(sd uint64) (arbitrary.Estimator, error) {
			return arbitrary.NewNearOptFourCycle(p, 0, sd)
		})
		if err != nil {
			return nil, err
		}

		t.Rows = append(t.Rows, []string{
			d(int64(T)), d(g.M()),
			f3(median(alErrs)), d(alSpace),
			f3(vErr), d(vSpace),
			f3(lnpErr), d(lnpSpace),
		})
	}
	t.Notes = append(t.Notes,
		"*AL runs Theorem 4.6 at m′ = Θ(m/T^{3/8}); AO runs both three-pass estimators at p = Θ(1/T^{1/4}). Space is the peak meter reading over the trials.*",
		"*The arbitrary-order column trades one extra pass for a (1±ε) guarantee; the adjacency-list column stays at two passes but only an O(1) ratio — the 4-cycle face of the model comparison started in M1.*")
	return t, nil
}

// arbRequiredSpace searches for the smallest sampling probability at which
// the arbitrary-order wedge estimator meets the guarantee, and returns the
// measured peak space there.
func arbRequiredSpace(s *arbitrary.Stream, truth float64, trials int, target float64, seed uint64) (int64, error) {
	for p := 1.0 / 128; ; p *= math.Sqrt2 {
		if p > 1 {
			p = 1
		}
		var errs []float64
		var maxSpace int64
		for i := 0; i < trials; i++ {
			alg, err := arbitrary.NewTwoPassWedge(p, seed+uint64(i)*0x51ed+271)
			if err != nil {
				return 0, err
			}
			arbitrary.Run(s, alg)
			errs = append(errs, stats.RelErr(alg.Estimate(), truth))
			if sp := alg.SpaceWords(); sp > maxSpace {
				maxSpace = sp
			}
		}
		if stats.Quantile(errs, 0.7) <= target || p >= 1 {
			return maxSpace, nil
		}
	}
}
