package graph

import (
	"fmt"
	"testing"
)

// benchScales are the graphs the exact-kernel suite runs on: three G(n,p)
// sizes whose edge count roughly triples per step while the co-degree
// structure stays non-trivial (avg degree 20–30), and a power-law graph of
// the repository benchmark's cl2k shape (n = 2000, γ = 2.2, maximum
// expected degree 400; m ≈ 3,000, maximum degree ≈ 300), whose hubs are
// where ordering the work by degree pays.
var benchScales = []struct {
	name string
	mk   func() *Graph
}{
	{"small", func() *Graph { return gnp(200, 0.10, 1, 0xbe47+200) }},
	{"medium", func() *Graph { return gnp(600, 0.05, 1, 0xbe47+600) }},
	{"large", func() *Graph { return gnp(1500, 0.02, 1, 0xbe47+1500) }},
	{"powerlaw", func() *Graph { return chungLu(2000, 1/1.2, 400, 0xbe47+2000) }},
}

// BenchmarkExactKernels pits the retired map-based implementations (kept as
// test oracles in oracle.go) against the CSR kernels, sequentially and on a
// 4-worker pool. The CSR index is built once outside the timed region — it
// is shared by every kernel on a real graph — and the csr-* variants call
// the unmemoized compute paths so each iteration does full work.
func BenchmarkExactKernels(b *testing.B) {
	kernels := []struct {
		name   string
		oracle func(g *Graph)
		csr    func(g *Graph)
	}{
		{
			name:   "triangles",
			oracle: func(g *Graph) { g.trianglesRef() },
			csr:    func(g *Graph) { g.computeTriangles() },
		},
		{
			name:   "fourcycles",
			oracle: func(g *Graph) { g.fourCyclesRef() },
			csr:    func(g *Graph) { g.computeFourCycles() },
		},
		{
			name:   "triangle-loads",
			oracle: func(g *Graph) { g.triangleLoadsRef() },
			csr:    func(g *Graph) { g.computeTriangleLoadSlice() },
		},
		{
			name:   "motifs",
			oracle: func(g *Graph) { g.motifsRef() },
			csr: func(g *Graph) {
				g.computeMotifs(
					g.computeTriangles(), g.computeFourCycles(),
					g.computeLocalTriangleSlice(), g.computeTriangleLoadSlice())
			},
		},
	}
	for _, sc := range benchScales {
		g := sc.mk()
		g.csr()
		for _, k := range kernels {
			impls := []struct {
				name    string
				workers int
				fn      func(g *Graph)
			}{
				{"oracle", 1, k.oracle},
				{"csr-seq", 1, k.csr},
				{"csr-par4", 4, k.csr},
			}
			for _, impl := range impls {
				b.Run(fmt.Sprintf("%s/%s/%s", k.name, sc.name, impl.name), func(b *testing.B) {
					prev := SetMaxWorkers(impl.workers)
					defer SetMaxWorkers(prev)
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						impl.fn(g)
					}
				})
			}
		}
	}
}

// BenchmarkCSRBuild measures the one-time cost of the index the kernels
// amortize: dense relabeling, flat rows, degree-rank orientation, and
// canonical edge ids.
func BenchmarkCSRBuild(b *testing.B) {
	for _, sc := range benchScales {
		g := sc.mk()
		b.Run(sc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildCSR(g)
			}
		})
	}
}
