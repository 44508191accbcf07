package exp

import (
	"math"

	"adjstream/internal/baseline"
	"adjstream/internal/core"
	"adjstream/internal/gen"
	"adjstream/internal/graph"
	"adjstream/internal/stats"
	"adjstream/internal/stream"
)

// triangleSweep are the T values used by the benign-workload rows; mTarget
// keeps m roughly fixed so the sample-size exponent fit is clean.
var triangleSweep = []int{64, 256, 1024, 4096}

const (
	triangleMTarget = 20000
	triangleTrials  = 15
	// searchTrials controls the quantile estimate inside requiredBudget.
	searchTrials = 31
	// targetRelErr is the ε of the required-budget search: the smallest m′
	// with relative error ≤ ε at success probability ≥ 2/3.
	targetRelErr = 0.2
)

// upperBoundRow runs one Table 1 upper-bound triangle row: for each T in
// the sweep it builds the row's extremal workload (the instance family on
// which the claimed bound binds), measures accuracy and space at the theory
// budget m′(m,T) = c·m/T^alpha, and independently searches for the smallest
// budget achieving the target error. The exponent of the required budget
// versus T is the row's measured space law.
func upperBoundRow(id, title, claim string, alpha float64, c float64, seed uint64,
	sweep []int,
	workload func(T int, mTarget int, seed uint64) (*graph.Graph, error),
	mk func(budgetEdges int, seed uint64) (stream.Estimator, error)) (*Table, error) {
	t := &Table{
		ID:     id,
		Title:  title,
		Claim:  claim,
		Header: []string{"T", "m", "m′ theory", "median rel. err", "space (words)", "m′ required (ε=0.2)"},
	}
	var Ts, reqs []float64
	for _, T := range sweep {
		g, err := workload(T, triangleMTarget, seed+uint64(T))
		if err != nil {
			return nil, err
		}
		s := stream.Random(g, seed)
		b := budget(c, g.M(), float64(T), alpha, 8)
		medErr, meanSpace, err := trialStats(s, float64(T), triangleTrials, func(sd uint64) (stream.Estimator, error) {
			return mk(b, sd+seed)
		})
		if err != nil {
			return nil, err
		}
		req, err := requiredBudget(s, float64(T), g.M(), searchTrials, targetRelErr, func(bb int, sd uint64) (stream.Estimator, error) {
			return mk(bb, sd+seed)
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			d(int64(T)), d(g.M()), d(int64(b)), f3(medErr), d(int64(meanSpace)), d(int64(req)),
		})
		Ts = append(Ts, float64(T))
		reqs = append(reqs, float64(req))
	}
	t.Notes = append(t.Notes, fitNote("required sample size", Ts, reqs, -alpha))
	return t, nil
}

// Table1Row1WedgeSampler measures the Õ(P2/T)-style one-pass wedge sampler
// (random list order). Each edge is kept with probability √(c/T), so the
// stored wedge set — the algorithm's dominant state — has expected size
// P2·c/T: the P2/T space law that makes wedge sampling lose to edge
// sampling on wedge-heavy graphs.
func Table1Row1WedgeSampler(seed uint64) (*Table, error) {
	t := &Table{
		ID:     "T1.R1",
		Title:  "Triangle, 1 pass, wedge sampling (random order) — Õ(P2/T) [12,17]",
		Claim:  "1-pass estimation with space driven by P2/T wedge samples",
		Header: []string{"T", "m", "P2", "c·P2/T", "median rel. err", "mean space (words)"},
	}
	var p2OverT, spaces []float64
	for _, T := range []int{64, 256, 1024} {
		g, err := plantedTriangleWorkload(T, 4000, seed+uint64(T))
		if err != nil {
			return nil, err
		}
		const c = 60.0
		p := math.Sqrt(c / float64(T))
		if p > 1 {
			p = 1
		}
		// Average over random orders too: the estimator's guarantee is for
		// the random-order model. Each trial has its own stream order, so
		// there is nothing for the broadcast driver to share here; the runs
		// stay sequential but counted.
		var errs []float64
		var spaceSum float64
		for i := 0; i < triangleTrials; i++ {
			alg, err := baseline.NewWedgeSampler(baseline.Config{SampleProb: p, WedgeCap: 1 << 22, Seed: seed + uint64(i)*131})
			if err != nil {
				return nil, err
			}
			runCopies(stream.Random(g, seed+uint64(i)), []stream.Estimator{alg})
			errs = append(errs, relErr(alg.Estimate(), float64(T)))
			spaceSum += float64(alg.SpaceWords())
		}
		meanSpace := spaceSum / float64(triangleTrials)
		t.Rows = append(t.Rows, []string{
			d(int64(T)), d(g.M()), d(g.WedgeCount()),
			d(int64(c * float64(g.WedgeCount()) / float64(T))),
			f3(median(errs)), d(int64(meanSpace)),
		})
		p2OverT = append(p2OverT, float64(g.WedgeCount())/float64(T))
		spaces = append(spaces, meanSpace)
	}
	exp1, _ := stats.FitPowerLaw(p2OverT, spaces)
	t.Notes = append(t.Notes, f2(exp1)+" *= fitted exponent of measured space versus P2/T (paper: 1.00 — space is linear in P2/T).*")
	t.Notes = append(t.Notes, "*Unbiased in the random-order adjacency-list model; degrades under adversarial order (see paper §1.1). P2/T ≫ m/√T on wedge-heavy graphs — why the Table 1 successors win.*")
	return t, nil
}

// Table1Row2OnePass measures the Õ(m/√T)-style one-pass estimator on its
// extremal family — the Figure 1a hub-completed K_{√T,√T} structure, whose
// (1,k,k) edge loads make Σ T(e)² = Θ(T^{3/2}) and pin edge sampling to
// Θ(m/√T).
func Table1Row2OnePass(seed uint64) (*Table, error) {
	tab, err := upperBoundRow("T1.R2",
		"Triangle, 1 pass, edge sampling — Õ(m/√T) [27]",
		"1-pass (1±ε) estimation with m′ = Θ(m/√T) sampled edges",
		0.5, 8, seed,
		[]int{1024, 4096, 16384}, pjHardWorkload,
		func(b int, sd uint64) (stream.Estimator, error) {
			return baseline.NewOnePassTriangle(baseline.Config{SampleSize: b, Seed: sd})
		})
	if err != nil {
		return nil, err
	}
	tab.Notes = append(tab.Notes, "*Workload: the Figure 1a extremal structure (hub-completed K_{√T,√T}), where the m/√T law binds.*")
	return tab, nil
}

// Table1Row3EdgeSample measures the naive two-pass estimator at the
// Õ(m^{3/2}/T) budget of the const-pass prior work.
func Table1Row3EdgeSample(seed uint64) (*Table, error) {
	t := &Table{
		ID:     "T1.R3",
		Title:  "Triangle, naive 2-pass edge-sample estimator at the Õ(m^{3/2}/T) budget [22,27]",
		Claim:  "const-pass estimation with m′ = Θ(m^{3/2}/T)",
		Header: []string{"T", "m", "m′ budget", "median rel. err", "mean space (words)"},
	}
	for _, T := range triangleSweep {
		g, err := plantedTriangleWorkload(T, triangleMTarget, seed+uint64(T))
		if err != nil {
			return nil, err
		}
		s := stream.Random(g, seed)
		b := int(2 * math.Pow(float64(g.M()), 1.5) / float64(T))
		if int64(b) > g.M() {
			b = int(g.M())
		}
		if b < 8 {
			b = 8
		}
		medErr, meanSpace, err := trialStats(s, float64(T), triangleTrials, func(sd uint64) (stream.Estimator, error) {
			return core.NewNaiveTwoPass(core.TriangleConfig{SampleSize: b, Seed: sd + seed})
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{d(int64(T)), d(g.M()), d(int64(b)), f3(medErr), d(int64(meanSpace))})
	}
	return t, nil
}

// Table1Row4ThreePass measures the three-pass exact-load variant at the
// same Õ(m^{3/2}/T) edge budget (its collected-pair set adds (m′/m)·3T).
func Table1Row4ThreePass(seed uint64) (*Table, error) {
	t := &Table{
		ID:     "T1.R4",
		Title:  "Triangle, 3 pass, lightest-edge with exact loads — Õ(m^{3/2}/T) [27]",
		Claim:  "const-pass (1±ε) estimation with m′ = Θ(m^{3/2}/T)",
		Header: []string{"T", "m", "m′ budget", "median rel. err", "mean space (words)"},
	}
	for _, T := range triangleSweep {
		g, err := plantedTriangleWorkload(T, triangleMTarget, seed+uint64(T))
		if err != nil {
			return nil, err
		}
		s := stream.Random(g, seed)
		b := int(2 * math.Pow(float64(g.M()), 1.5) / float64(T))
		if int64(b) > g.M() {
			b = int(g.M())
		}
		if b < 8 {
			b = 8
		}
		medErr, meanSpace, err := trialStats(s, float64(T), triangleTrials, func(sd uint64) (stream.Estimator, error) {
			return core.NewThreePassTriangle(core.TriangleConfig{SampleSize: b, Seed: sd + seed})
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{d(int64(T)), d(g.M()), d(int64(b)), f3(medErr), d(int64(meanSpace))})
	}
	return t, nil
}

// Table1Row5Distinguisher measures the 0-vs-T distinguisher at the
// Õ(m/T^{2/3}) budget: detection rate on T-instances and false-positive
// rate on triangle-free instances.
func Table1Row5Distinguisher(seed uint64) (*Table, error) {
	t := &Table{
		ID:     "T1.R5",
		Title:  "Triangle, 2 pass, 0-vs-T distinguishing — Õ(m/T^{2/3}) [27]",
		Claim:  "distinguishing triangle-free from T triangles with m′ = Θ(m/T^{2/3})",
		Header: []string{"T", "m", "m′ budget", "detect rate (T inst.)", "false pos. (0 inst.)"},
	}
	const trials = 40
	for _, T := range triangleSweep {
		g, err := plantedTriangleWorkload(T, triangleMTarget, seed+uint64(T))
		if err != nil {
			return nil, err
		}
		g0, err := plantedTriangleWorkload(0, triangleMTarget, seed+uint64(T)+7)
		if err != nil {
			return nil, err
		}
		b := budget(4, g.M(), float64(T), 2.0/3.0, 8)
		sYes := stream.Random(g, seed)
		sNo := stream.Random(g0, seed)
		// All yes-trials share sYes and all no-trials share sNo, so each
		// group is one broadcast fan-out.
		dys := make([]*core.NaiveTwoPass, trials)
		dns := make([]*core.NaiveTwoPass, trials)
		yesEsts := make([]stream.Estimator, trials)
		noEsts := make([]stream.Estimator, trials)
		for i := 0; i < trials; i++ {
			dy, err := core.NewNaiveTwoPass(core.TriangleConfig{SampleSize: b, Seed: seed + uint64(i)*17})
			if err != nil {
				return nil, err
			}
			dn, err := core.NewNaiveTwoPass(core.TriangleConfig{SampleSize: b, Seed: seed + uint64(i)*17})
			if err != nil {
				return nil, err
			}
			dys[i], dns[i] = dy, dn
			yesEsts[i], noEsts[i] = dy, dn
		}
		runCopies(sYes, yesEsts)
		runCopies(sNo, noEsts)
		detect, falsePos := 0, 0
		for i := 0; i < trials; i++ {
			if dys[i].Detected() {
				detect++
			}
			if dns[i].Detected() {
				falsePos++
			}
		}
		t.Rows = append(t.Rows, []string{
			d(int64(T)), d(g.M()), d(int64(b)),
			f2(float64(detect) / trials), f2(float64(falsePos) / trials),
		})
	}
	t.Notes = append(t.Notes, "*Any graph with T triangles has ≥ T^{2/3} edges in triangles, so an m/T^{2/3} sample hits one with constant probability; a triangle-free graph can never trigger detection.*")
	return t, nil
}

// Table1Row6TwoPassTriangle measures the paper's main algorithm at the
// Õ(m/T^{2/3}) budget (Theorem 3.7).
func Table1Row6TwoPassTriangle(seed uint64) (*Table, error) {
	tab, err := upperBoundRow("T1.R6",
		"Triangle, 2 pass, lightest-edge via H proxy — Õ(m/T^{2/3}) (Theorem 3.7)",
		"2-pass (1±ε) estimation with m′ = Θ(m/T^{2/3}) — the paper's main upper bound",
		2.0/3.0, 8, seed,
		[]int{4096, 32768, 262144}, tripartiteWorkload,
		func(b int, sd uint64) (stream.Estimator, error) {
			return core.NewTwoPassTriangle(core.TriangleConfig{SampleSize: b, PairCap: 8 * b, Seed: sd})
		})
	if err != nil {
		return nil, err
	}
	tab.Notes = append(tab.Notes,
		"*Workload: the Figure 1b extremal structure (a K_{T^{1/3},T^{1/3},T^{1/3}} cluster in noise) — the family behind the Ω(m/T^{2/3}) lower bound, on which Theorem 3.7 is tight.*",
		"*The pair reservoir uses |Q| = 8m′ (still Θ(m′) space): the paper's k²T′/m′ variance term is a 1/|Q| floor that would otherwise mask the T^{-2/3} law at the small m of this testbed.*")
	return tab, nil
}

// Table1Row9TwoPassFourCycle measures the paper's 4-cycle algorithm at the
// Õ(m/T^{3/8}) budget (Theorem 4.6).
func Table1Row9TwoPassFourCycle(seed uint64) (*Table, error) {
	t := &Table{
		ID:     "T1.R9",
		Title:  "4-cycle, 2 pass, sampled wedges — Õ(m/T^{3/8}) (Theorem 4.6)",
		Claim:  "2-pass O(1)-approximation with m′ = Θ(m/T^{3/8})",
		Header: []string{"T (C4)", "m", "m′ budget", "median rel. err", "approx ratio p90", "mean space (words)"},
	}
	// Bipartite butterfly workloads of growing density, sized so the
	// m/T^{3/8} budget is genuinely sublinear.
	// The k=16 point (≈4× the 4-cycle mass of k=12) became affordable when
	// the ground-truth layer moved to the CSR kernels.
	params := []struct{ a, b, k int }{
		{300, 60, 5},
		{300, 60, 8},
		{300, 60, 12},
		{300, 60, 16},
	}
	for _, p := range params {
		g, err := gen.BipartiteButterflies(p.a, p.b, p.k, seed)
		if err != nil {
			return nil, err
		}
		T := g.FourCycles()
		b := budget(10, g.M(), float64(T), 3.0/8.0, 8)
		s := stream.Random(g, seed)
		var errs, ratios []float64
		var spaceSum float64
		const trials = 15
		ests := make([]stream.Estimator, trials)
		for i := 0; i < trials; i++ {
			// WedgeCap keeps |Q| = O(m′), the paper's stated space; the
			// dilution correction keeps the estimator centered.
			alg, err := core.NewTwoPassFourCycle(core.FourCycleConfig{SampleSize: b, WedgeCap: 4 * b, Seed: seed + uint64(i)*37})
			if err != nil {
				return nil, err
			}
			ests[i] = alg
		}
		runCopies(s, ests)
		for _, alg := range ests {
			errs = append(errs, relErr(alg.Estimate(), float64(T)))
			r := alg.Estimate() / float64(T)
			if r < 1 && r > 0 {
				r = 1 / r
			}
			ratios = append(ratios, r)
			spaceSum += float64(alg.SpaceWords())
		}
		t.Rows = append(t.Rows, []string{
			d(T), d(g.M()), d(int64(b)), f3(median(errs)), f2(quantile(ratios, 0.9)),
			d(int64(spaceSum / trials)),
		})
	}
	t.Notes = append(t.Notes, "*A constant-factor approximation, per the theorem; the (1±ε) regime is provably out of reach for this budget.*")

	// Second half of the row: the required-budget law on the extremal
	// family (a planted K_{b,b}, whose C(b,2)² 4-cycles ride on only
	// ≈ T^{3/4} wedges — the scarce-wedge structure that pins the budget
	// to Θ(m/T^{3/8})).
	var Ts, reqs []float64
	detail := "*Biclique extremal family (T, m, required m′ at ε=0.2):*"
	for _, bside := range []int{6, 10, 16, 22} {
		g, T, err := plantedBicliqueWorkload(bside, 3000, seed)
		if err != nil {
			return nil, err
		}
		s := stream.Random(g, seed)
		req, err := requiredBudget(s, float64(T), g.M(), searchTrials, targetRelErr, func(bb int, sd uint64) (stream.Estimator, error) {
			return core.NewTwoPassFourCycle(core.FourCycleConfig{SampleSize: bb, Seed: sd + seed})
		})
		if err != nil {
			return nil, err
		}
		Ts = append(Ts, float64(T))
		reqs = append(reqs, float64(req))
		detail += " (" + d(T) + ", " + d(g.M()) + ", " + d(int64(req)) + ")"
	}
	t.Notes = append(t.Notes, detail)
	t.Notes = append(t.Notes, fitNote("required sample size (biclique family)", Ts, reqs, -3.0/8.0))
	return t, nil
}

// relErr is RelErr that treats 0-truth/0-estimate as zero error.
func relErr(est, truth float64) float64 {
	if truth == 0 {
		if est == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(est-truth) / truth
}

func median(xs []float64) float64              { return stats.Median(xs) }
func quantile(xs []float64, q float64) float64 { return stats.Quantile(xs, q) }
