package adjstream_test

import (
	"context"
	"fmt"
	"log"

	"adjstream"
)

// Estimate triangles in a small graph with the paper's two-pass algorithm.
func ExampleEstimate() {
	g, err := adjstream.FromEdges([]adjstream.Edge{
		{U: 1, V: 2}, {U: 2, V: 3}, {U: 1, V: 3}, // triangle
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 3, V: 5}, // triangle
	})
	if err != nil {
		log.Fatal(err)
	}
	s := adjstream.SortedStream(g)
	res, err := adjstream.Estimate(s, adjstream.Options{
		Algorithm:  adjstream.AlgoTwoPassTriangle,
		SampleProb: 1, // full sample: the estimate is exact
		Seed:       1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("triangles: %.0f (passes: %d)\n", res.Estimate, res.Passes)
	// Output: triangles: 2 (passes: 2)
}

// Count 4-cycles with the Theorem 4.6 estimator.
func ExampleEstimate_fourCycles() {
	g, err := adjstream.FromEdges([]adjstream.Edge{
		{U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := adjstream.Estimate(adjstream.SortedStream(g), adjstream.Options{
		Algorithm:  adjstream.AlgoTwoPassFourCycle,
		SampleProb: 1,
		Seed:       1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("4-cycles: %.0f\n", res.Estimate)
	// Output: 4-cycles: 1
}

// Exact counting of longer cycles, for which the paper proves no sublinear
// streaming algorithm can exist (Theorem 5.5).
func ExampleEstimate_exactLongCycles() {
	g, err := adjstream.FromEdges([]adjstream.Edge{
		{U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := adjstream.Estimate(adjstream.SortedStream(g), adjstream.Options{
		Algorithm: adjstream.AlgoExact,
		CycleLen:  5,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("5-cycles: %.0f (space: %d words = 2m)\n", res.Estimate, res.SpaceWords)
	// Output: 5-cycles: 1 (space: 10 words = 2m)
}

// Per-vertex (local) triangle counts.
func ExampleLocalEstimateContext() {
	// Two triangles sharing vertex 0.
	g, err := adjstream.FromEdges([]adjstream.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2},
		{U: 0, V: 3}, {U: 3, V: 4}, {U: 0, V: 4},
	})
	if err != nil {
		log.Fatal(err)
	}
	counts, _, err := adjstream.LocalEstimateContext(context.Background(), adjstream.SortedStream(g), 1, adjstream.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("triangles through vertex 0: %.0f\n", counts[0])
	// Output: triangles through vertex 0: 2
}
