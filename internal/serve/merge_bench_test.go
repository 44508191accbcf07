package serve

import (
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"adjstream"
	"adjstream/internal/gen"
)

// mergeShapes are the repository benchmark's two graph shapes, with their
// merge sizes: the ingest-churn graph with its 256-op threshold, and the
// ingest probe's cl2k graph with 1024-op deltas (four 256-op batches).
var mergeShapes = []struct {
	name   string
	n      int
	gamma  float64
	maxDeg float64
	ops    int
}{
	{"churn", 6000, 2.2, 600, 256},
	{"cl2k", 2000, 2.2, 400, 1024},
}

// mergeOps draws a fixed four-batch delta against g: per batch, half
// additions of absent edges between vertices of g and half removals of
// present edges, no edge twice and no removal that isolates a vertex — the
// ingest writer's rule.
func mergeOps(g *adjstream.Graph, ops int, seed uint64) (add, remove []adjstream.Edge) {
	rng := rand.New(rand.NewPCG(seed, 0x6d65726765))
	verts := g.Vertices()
	edges := g.Edges()
	deg := make(map[adjstream.V]int, len(verts))
	present := make(map[adjstream.Edge]bool, len(edges))
	for _, e := range edges {
		deg[e.U]++
		deg[e.V]++
		present[e] = true
	}
	touched := make(map[adjstream.Edge]bool)
	for batch := 0; batch < 4; batch++ {
		for n := 0; n < ops/8; {
			u, v := verts[rng.IntN(len(verts))], verts[rng.IntN(len(verts))]
			e := adjstream.Edge{U: u, V: v}.Norm()
			if u == v || present[e] || touched[e] {
				continue
			}
			touched[e] = true
			add = append(add, e)
			deg[u]++
			deg[v]++
			n++
		}
		for n := 0; n < ops/8; {
			e := edges[rng.IntN(len(edges))]
			if touched[e] || deg[e.U] < 2 || deg[e.V] < 2 {
				continue
			}
			touched[e] = true
			remove = append(remove, e)
			deg[e.U]--
			deg[e.V]--
			n++
		}
	}
	return add, remove
}

// mergeSink keeps the benchmark's merged datasets observable.
var mergeSink *Dataset

// BenchmarkDatasetMerge times one threshold merge of an ingest version —
// Delta.Apply, the canonical sorted stream and the fingerprint, which is
// what MutableDataset.mergeLocked does under the dataset lock — at the
// repository benchmark's two shapes. The graph is the served form of a
// generated Chung–Lu graph (an edge list, so without isolated vertices).
// Staging the delta is outside the timed region.
func BenchmarkDatasetMerge(b *testing.B) {
	for _, sh := range mergeShapes {
		gen0, err := gen.ChungLu(sh.n, sh.gamma, sh.maxDeg, 1)
		if err != nil {
			b.Fatal(err)
		}
		base, err := adjstream.FromEdges(gen0.Edges())
		if err != nil {
			b.Fatal(err)
		}
		add, remove := mergeOps(base, sh.ops, 7)
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d := adjstream.NewDelta(base)
				for _, e := range add {
					if err := d.Add(e.U, e.V); err != nil {
						b.Fatal(err)
					}
				}
				for _, e := range remove {
					if err := d.Remove(e.U, e.V); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				mergeSink = newDataset(sh.name, d.Apply(), 2)
			}
		})
	}
}

// BenchmarkCatalogLoad times what a node's boot pays per graph file:
// Catalog.LoadFile parsing the edge list, building the graph, and building
// the dataset's sorted stream and fingerprint, at the repository
// benchmark's two graph shapes, written as edge-list files the way it
// writes them.
func BenchmarkCatalogLoad(b *testing.B) {
	for _, sh := range mergeShapes {
		g, err := gen.ChungLu(sh.n, sh.gamma, sh.maxDeg, 1)
		if err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(b.TempDir(), sh.name+".edges")
		f, err := os.Create(path)
		if err != nil {
			b.Fatal(err)
		}
		if err := adjstream.WriteEdgeList(f, g); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := NewCatalog().LoadFile(sh.name, path); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
