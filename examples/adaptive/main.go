// Adaptive estimation and distinguishing: the deployable workflow when the
// triangle count T is unknown. The paper's budgets are stated in T; the
// adaptive estimator discovers its own budget online, and
// DistinguishContext answers the paper's decision problems directly.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"adjstream"
	"adjstream/internal/gen"
)

func main() {
	// A workload whose T the "operator" does not know.
	g, err := gen.PlantedTriangles(800, 60, 0.25, 11)
	if err != nil {
		log.Fatal(err)
	}
	s := adjstream.RandomStream(g, 1)
	truth := float64(g.Triangles())
	fmt.Printf("workload: m=%d (T hidden from the estimator)\n\n", g.M())

	// Adaptive: start with permission to keep every edge; the run shrinks
	// its own bottom-k budget as the running estimate firms up.
	res, err := adjstream.Estimate(s, adjstream.Options{
		Algorithm:  adjstream.AlgoAdaptiveTriangle,
		SampleSize: int(g.M()), // initial (maximum) budget
		Copies:     5,
		Parallel:   true,
		Seed:       3,
	})
	if err != nil {
		log.Fatal(err)
	}
	oracle := 8 * float64(g.M()) / math.Pow(truth, 2.0/3.0)
	fmt.Printf("adaptive estimate: %.0f (truth %.0f, rel err %.3f)\n",
		res.Estimate, truth, math.Abs(res.Estimate-truth)/truth)
	fmt.Printf("space used:        %d words across %d copies\n", res.SpaceWords, res.Copies)
	fmt.Printf("oracle budget:     %.0f edges (needs knowing T)\n\n", oracle)

	// Distinguishing: the paper's decision problems, one call each.
	for _, l := range []int{3, 4, 5} {
		found, dres, err := adjstream.DistinguishContext(context.Background(), s, l, adjstream.Options{Seed: 9})
		if err != nil {
			log.Fatal(err)
		}
		note := "sublinear distinguisher"
		if l >= 5 {
			note = "exact O(m) — Theorem 5.5 says nothing sublinear exists"
		}
		fmt.Printf("any %d-cycles? %-5v (%d passes, %d words; %s)\n",
			l, found, dres.Passes, dres.SpaceWords, note)
	}
}
