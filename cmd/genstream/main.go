// Command genstream generates synthetic workload graphs (the repository's
// substitutes for the datasets the paper does not ship) and writes them as
// edge lists or adjacency-list streams (text or "adjC" columnar).
//
// Usage:
//
//	genstream -kind er -n 1000 -p 0.01 -out g.edges
//	genstream -kind planted -t 500 -side 100 -p 0.2 -format stream -out g.stream
//	genstream -kind torus -n 20 -side 20 -format colstream -out torus.adjc
//	genstream -kind plane -q 7 -out plane.edges
//	genstream -kind butterflies -format arbstream -out g.arb   # arbitrary-order edge stream
//
// The arbstream format writes the edge list in a seeded shuffle — the
// on-disk form of an arbitrary-order edge stream, replayed in file order by
// cyclecount -model arbitrary.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"adjstream"
	"adjstream/internal/gen"
	"adjstream/internal/graph"
	"adjstream/internal/plane"
	"adjstream/internal/stream"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("genstream", flag.ContinueOnError)
	fs.SetOutput(stderr)
	kind := fs.String("kind", "er", "workload: er, gnm, complete, bipartite, chunglu, ba, planted, books, butterflies, disjoint-triangles, disjoint-c4, torus, regular, smallworld, plane")
	n := fs.Int("n", 100, "vertex count (er, gnm, complete, chunglu, ba, regular, smallworld) / torus rows")
	m := fs.Int64("m", 500, "edge count (gnm)")
	p := fs.Float64("p", 0.1, "edge probability / noise density / rewiring beta")
	t := fs.Int("t", 100, "planted cycle count / disjoint copies / book count")
	side := fs.Int("side", 50, "bipartite/noise side size / torus columns")
	k := fs.Int("k", 4, "degree parameter (ba, butterflies, regular, smallworld) / book size")
	q := fs.Int64("q", 5, "projective plane order (prime power)")
	gamma := fs.Float64("gamma", 2.5, "power-law exponent (chunglu)")
	seed := fs.Uint64("seed", 1, "seed")
	format := fs.String("format", "edges", "output format: edges, arbstream (seed-shuffled edge list for -model arbitrary runs), stream, or colstream (mmap-able columnar)")
	order := fs.String("order", "random", "stream order: sorted or random (with stream formats)")
	out := fs.String("out", "", "output path (default stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	g, err := build(*kind, *n, *m, *p, *t, *side, *k, *q, *gamma, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "genstream:", err)
		return 1
	}

	w := io.Writer(stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, "genstream:", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "edges":
		err = adjstream.WriteEdgeList(w, g)
	case "arbstream":
		err = writeArbStream(w, g, *seed)
	case "stream", "colstream":
		var s *adjstream.Stream
		if *order == "sorted" {
			s = adjstream.SortedStream(g)
		} else {
			s = adjstream.RandomStream(g, *seed)
		}
		if *format == "stream" {
			err = adjstream.WriteStream(w, s)
		} else {
			err = stream.WriteColumnar(w, s)
		}
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fmt.Fprintln(stderr, "genstream:", err)
		return 1
	}
	fmt.Fprintf(stderr, "genstream: %s n=%d m=%d\n", *kind, g.N(), g.M())
	return 0
}

// writeArbStream emits g as an edge list in a seeded arbitrary order — the
// on-disk form of the arbitrary-order streaming model. cyclecount replays it
// in file order under -model arbitrary.
func writeArbStream(w io.Writer, g *graph.Graph, seed uint64) error {
	bw := bufio.NewWriter(w)
	for _, e := range adjstream.ArbitraryStreamFromGraph(g, seed).Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.V); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func build(kind string, n int, m int64, p float64, t, side, k int, q int64, gamma float64, seed uint64) (*graph.Graph, error) {
	switch kind {
	case "er":
		return gen.ErdosRenyi(n, p, seed)
	case "gnm":
		return gen.GNM(n, m, seed)
	case "complete":
		return gen.Complete(n), nil
	case "bipartite":
		return gen.RandomBipartite(side, side, p, seed)
	case "chunglu":
		return gen.ChungLu(n, gamma, float64(k*10), seed)
	case "ba":
		return gen.BarabasiAlbert(n, k, seed)
	case "planted":
		return gen.PlantedTriangles(t, side, p, seed)
	case "books":
		return gen.PlantedBooks(t, k, side, p, seed)
	case "butterflies":
		return gen.BipartiteButterflies(n, side, k, seed)
	case "disjoint-triangles":
		return gen.DisjointTriangles(t), nil
	case "disjoint-c4":
		return gen.DisjointFourCycles(t), nil
	case "torus":
		return gen.Torus(n, side)
	case "regular":
		return gen.RandomRegular(n, k, seed)
	case "smallworld":
		return gen.WattsStrogatz(n, k, p, seed)
	case "plane":
		pl, err := plane.New(q)
		if err != nil {
			return nil, err
		}
		return pl.IncidenceGraph(0, graph.V(pl.Size()))
	default:
		return nil, fmt.Errorf("unknown kind %q", kind)
	}
}
