package baseline

import (
	"context"
	"testing"
	"testing/quick"

	"adjstream/internal/gen"
	"adjstream/internal/stream"
)

func TestStreamStatsMatchesGraph(t *testing.T) {
	g, err := gen.ErdosRenyi(60, 0.2, 9)
	if err != nil {
		t.Fatal(err)
	}
	c := NewStreamStats()
	stream.Run(stream.Random(g, 2), c)
	if c.M() != g.M() {
		t.Errorf("M = %d, want %d", c.M(), g.M())
	}
	if c.WedgeCount() != g.WedgeCount() {
		t.Errorf("P2 = %d, want %d", c.WedgeCount(), g.WedgeCount())
	}
	if c.MaxDegree() != int64(g.MaxDegree()) {
		t.Errorf("maxdeg = %d, want %d", c.MaxDegree(), g.MaxDegree())
	}
	var degSq int64
	for _, v := range g.Vertices() {
		d := int64(g.Degree(v))
		degSq += d * d
	}
	if c.DegreeSecondMoment() != degSq {
		t.Errorf("Σd² = %d, want %d", c.DegreeSecondMoment(), degSq)
	}
}

func TestStreamStatsTransitivity(t *testing.T) {
	g := gen.Complete(6)
	c := NewStreamStats()
	stream.Run(stream.Sorted(g), c)
	if got, want := c.Transitivity(float64(g.Triangles())), g.Transitivity(); got != want {
		t.Fatalf("transitivity = %v, want %v", got, want)
	}
	empty := NewStreamStats()
	if empty.Transitivity(5) != 0 {
		t.Fatal("empty transitivity should be 0")
	}
}

func TestStreamStatsOrderInvariantQuick(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := gen.ErdosRenyi(25, 0.3, seed%128+1)
		if err != nil || g.M() == 0 {
			return true
		}
		a, b := NewStreamStats(), NewStreamStats()
		stream.Run(stream.Random(g, seed), a)
		stream.Run(stream.Random(g, seed+999), b)
		return a.M() == b.M() && a.WedgeCount() == b.WedgeCount() &&
			a.MaxDegree() == b.MaxDegree() && a.Lists() == b.Lists()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRunParallelMatchesSequential(t *testing.T) {
	g, err := gen.PlantedTriangles(30, 15, 0.3, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := stream.Random(g, 1)
	mkCopies := func() []stream.Estimator {
		out := make([]stream.Estimator, 5)
		for i := range out {
			e, err := NewOnePassTriangle(Config{SampleProb: 0.5, Seed: uint64(i) + 1})
			if err != nil {
				t.Fatal(err)
			}
			out[i] = e
		}
		return out
	}
	seq := mkCopies()
	for _, e := range seq {
		stream.Run(s, e)
	}
	par := mkCopies()
	est, sp, _, err := stream.MedianBroadcastContext(context.Background(), s, par)
	if err != nil {
		t.Fatal(err)
	}
	var seqEsts []float64
	var seqSpace int64
	for _, e := range seq {
		seqEsts = append(seqEsts, e.Estimate())
		seqSpace += e.SpaceWords()
	}
	for i := range seq {
		if seq[i].Estimate() != par[i].Estimate() {
			t.Fatalf("copy %d: parallel %v vs sequential %v", i, par[i].Estimate(), seq[i].Estimate())
		}
	}
	if sp != seqSpace {
		t.Fatalf("space %d vs %d", sp, seqSpace)
	}
	_ = est
}
