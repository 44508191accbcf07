package graph

import (
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
)

// Property tests: every CSR kernel agrees exactly — values, maps, and for
// the enumerator even visit order — with the map-based reference oracles in
// oracle.go, on each workload family the experiments draw from, under both
// the sequential path (1 worker) and a concurrent pool. The generators are
// re-implemented inline because internal/gen and internal/plane import this
// package.

// gnp returns G(n,p) with vertex ids stretched by stride (stride > 1 makes
// ids non-contiguous, exercising the dense renumbering).
func gnp(n int, p float64, stride int64, seed uint64) *Graph {
	rng := rand.New(rand.NewPCG(seed, 0xa5e))
	b := NewBuilder()
	for i := 0; i < n; i++ {
		b.AddVertex(V(int64(i) * stride))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				b.AddIfAbsent(V(int64(i)*stride), V(int64(j)*stride))
			}
		}
	}
	return b.Graph()
}

// chungLu returns a Chung–Lu graph with power-ish weights w_i ∝ (i+1)^{-α}
// scaled to target average degree.
func chungLu(n int, alpha float64, avgDeg float64, seed uint64) *Graph {
	rng := rand.New(rand.NewPCG(seed, 7))
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = math.Pow(float64(i+1), -alpha)
		sum += w[i]
	}
	scale := avgDeg * float64(n) / sum
	for i := range w {
		w[i] *= scale
	}
	b := NewBuilder()
	for i := 0; i < n; i++ {
		b.AddVertex(V(i))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p := w[i] * w[j] / (scale * float64(n))
			if p > 1 {
				p = 1
			}
			if rng.Float64() < p {
				b.AddIfAbsent(V(i), V(j))
			}
		}
	}
	return b.Graph()
}

// planeIncidence returns the point–line incidence graph of PG(2,q) for
// prime q: girth-6, (q+1)-regular, the extremal 4-cycle-free family of the
// paper's Section 5.2. Points and lines are normalized homogeneous triples
// over GF(q) (last nonzero coordinate equal to 1); incidence is a zero dot
// product.
func planeIncidence(q int64) *Graph {
	var norm [][3]int64
	for z := int64(0); z < 2; z++ {
		for y := int64(0); y < q; y++ {
			for x := int64(0); x < q; x++ {
				v := [3]int64{x, y, z}
				switch {
				case v[2] == 1:
					norm = append(norm, v)
				case v[2] == 0 && v[1] == 1:
					norm = append(norm, v)
				case v[2] == 0 && v[1] == 0 && v[0] == 1:
					norm = append(norm, v)
				}
			}
		}
	}
	b := NewBuilder()
	off := int64(len(norm))
	for i, p := range norm {
		for j, l := range norm {
			dot := (p[0]*l[0] + p[1]*l[1] + p[2]*l[2]) % q
			if dot == 0 {
				b.AddIfAbsent(V(int64(i)), V(off+int64(j)))
			}
		}
	}
	return b.Graph()
}

// plantedCycles returns k disjoint simple cycles of length l over sparse
// G(n,p) noise on separate vertices.
func plantedCycles(k, l int, seed uint64) *Graph {
	b := NewBuilder()
	id := int64(0)
	for c := 0; c < k; c++ {
		first := id
		for i := 0; i < l; i++ {
			next := first
			if i < l-1 {
				next = id + 1
			}
			b.AddIfAbsent(V(id), V(next))
			id++
		}
	}
	rng := rand.New(rand.NewPCG(seed, 3))
	base := id + 5
	for i := 0; i < 120; i++ {
		u := base + rng.Int64N(60)
		v := base + rng.Int64N(60)
		if u != v {
			b.AddIfAbsent(V(u), V(v))
		}
	}
	return b.Graph()
}

func workloadGraphs(t *testing.T) map[string]func() *Graph {
	t.Helper()
	return map[string]func() *Graph{
		"gnp-small":        func() *Graph { return gnp(40, 0.25, 1, 11) },
		"gnp-mid":          func() *Graph { return gnp(120, 0.08, 1, 12) },
		"gnp-noncontig":    func() *Graph { return gnp(80, 0.12, 1_000_003, 13) },
		"chunglu":          func() *Graph { return chungLu(150, 0.4, 6, 14) },
		"plane-q3":         func() *Graph { return planeIncidence(3) },
		"plane-q5":         func() *Graph { return planeIncidence(5) },
		"planted-c5":       func() *Graph { return plantedCycles(6, 5, 15) },
		"planted-c7":       func() *Graph { return plantedCycles(4, 7, 16) },
		"empty":            func() *Graph { return NewBuilder().Graph() },
		"isolated-only":    func() *Graph { b := NewBuilder(); b.AddVertex(3); b.AddVertex(9); return b.Graph() },
		"single-edge":      func() *Graph { return MustFromEdges([]Edge{{5, 9}}) },
		"triangle-plus-v0": func() *Graph { return MustFromEdges([]Edge{{0, 1}, {0, 2}, {1, 2}, {2, 3}}) },
	}
}

// shardedGraphs are graphs with at least parallelThreshold half-edges, so
// reduceShards splits their outer loops across the worker pool: a
// hub-heavy Chung–Lu graph (maximum degree 259) and a G(n,p) graph with
// non-contiguous ids.
func shardedGraphs() map[string]func() *Graph {
	return map[string]func() *Graph{
		"chunglu-hubs":     func() *Graph { return chungLu(1500, 0.7, 300, 21) },
		"gnp-noncontig-4k": func() *Graph { return gnp(400, 0.05, 7, 22) },
	}
}

// TestShardedKernelsMatchOracles runs the aggregate kernels on graphs above
// the sharding threshold at 1, 2 and 4 workers, rebuilding the graph each
// time, against oracles computed once per graph. CountCycles(ℓ ≥ 5) is left
// out: its DFS oracle is too slow at this size.
func TestShardedKernelsMatchOracles(t *testing.T) {
	for name, mk := range shardedGraphs() {
		t.Run(name, func(t *testing.T) {
			defer SetMaxWorkers(SetMaxWorkers(0))
			ref := mk()
			tri, four := ref.trianglesRef(), ref.fourCyclesRef()
			loads, local, motifs := ref.triangleLoadsRef(), ref.localTrianglesRef(), ref.motifsRef()
			for _, w := range []int{1, 2, 4} {
				SetMaxWorkers(w)
				g := mk()
				if got := len(g.csr().colIdx); got < parallelThreshold {
					t.Fatalf("%d half-edges, below the sharding threshold %d", got, parallelThreshold)
				}
				if got := g.Triangles(); got != tri {
					t.Errorf("workers %d: Triangles = %d, want %d", w, got, tri)
				}
				if got := g.FourCycles(); got != four {
					t.Errorf("workers %d: FourCycles = %d, want %d", w, got, four)
				}
				if got := g.TriangleLoads(); !reflect.DeepEqual(got, loads) {
					t.Errorf("workers %d: TriangleLoads differ from the oracle", w)
				}
				if got := g.LocalTriangles(); !reflect.DeepEqual(got, local) {
					t.Errorf("workers %d: LocalTriangles differ from the oracle", w)
				}
				if got := g.Motifs(); got != motifs {
					t.Errorf("workers %d: Motifs = %+v, want %+v", w, got, motifs)
				}
			}
		})
	}
}

// withWorkers runs the check under the sequential path and under a forced
// 4-worker pool (independent of GOMAXPROCS), rebuilding the graph each time
// so memoization cannot mask a divergence.
func withWorkers(t *testing.T, mk func() *Graph, check func(t *testing.T, g *Graph)) {
	t.Helper()
	for _, w := range []int{1, 4} {
		prev := SetMaxWorkers(w)
		check(t, mk())
		SetMaxWorkers(prev)
	}
}

func TestCSRKernelsMatchOracles(t *testing.T) {
	for name, mk := range workloadGraphs(t) {
		t.Run(name, func(t *testing.T) {
			withWorkers(t, mk, func(t *testing.T, g *Graph) {
				if got, want := g.Triangles(), g.trianglesRef(); got != want {
					t.Errorf("Triangles = %d, want %d", got, want)
				}
				if got, want := g.FourCycles(), g.fourCyclesRef(); got != want {
					t.Errorf("FourCycles = %d, want %d", got, want)
				}
				if got, want := g.WedgeCount(), g.wedgeCountRef(); got != want {
					t.Errorf("WedgeCount = %d, want %d", got, want)
				}
				if got, want := g.MaxTriangleLoad(), g.maxTriangleLoadRef(); got != want {
					t.Errorf("MaxTriangleLoad = %d, want %d", got, want)
				}
				if got, want := g.TriangleLoads(), g.triangleLoadsRef(); !loadsEqual(got, want) {
					t.Errorf("TriangleLoads = %v, want %v", got, want)
				}
				if got, want := g.LocalTriangles(), g.localTrianglesRef(); !reflect.DeepEqual(got, want) {
					t.Errorf("LocalTriangles = %v, want %v", got, want)
				}
				if got, want := g.FourCycleWedgeLoads(), g.fourCycleWedgeLoadsRef(); !reflect.DeepEqual(got, want) {
					t.Errorf("FourCycleWedgeLoads = %v, want %v", got, want)
				}
				for _, l := range []int{3, 4, 5, 6, 7} {
					got, err := g.CountCycles(l)
					if err != nil {
						t.Fatal(err)
					}
					want, err := g.countCyclesRef(l)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("CountCycles(%d) = %d, want %d", l, got, want)
					}
				}
				if got, want := g.Motifs(), g.motifsRef(); got != want {
					t.Errorf("Motifs = %+v, want %+v", got, want)
				}
			})
		})
	}
}

// loadsEqual treats a missing key and a zero value as distinct, exactly
// like reflect.DeepEqual — wrapped for a clearer failure message path.
func loadsEqual(a, b map[Edge]int64) bool { return reflect.DeepEqual(a, b) }

// TestForEachTriangleOrderMatchesReference pins the enumeration order, not
// just the multiset: downstream code may rely on deterministic replay.
func TestForEachTriangleOrderMatchesReference(t *testing.T) {
	for name, mk := range workloadGraphs(t) {
		t.Run(name, func(t *testing.T) {
			g := mk()
			var got, want []Triangle
			g.ForEachTriangle(func(tr Triangle) { got = append(got, tr) })
			g.forEachTriangleRef(func(tr Triangle) { want = append(want, tr) })
			if !reflect.DeepEqual(got, want) {
				t.Errorf("enumeration order diverged:\ngot  %v\nwant %v", got, want)
			}
		})
	}
}

func TestDegreeMoments(t *testing.T) {
	g := gnp(60, 0.2, 1, 21)
	s1, s2, s3 := g.DegreeMoments()
	var w1, w2, w3 int64
	for _, v := range g.Vertices() {
		d := int64(g.Degree(v))
		w1 += d
		w2 += d * d
		w3 += d * d * d
	}
	if s1 != w1 || s2 != w2 || s3 != w3 {
		t.Errorf("DegreeMoments = %d,%d,%d want %d,%d,%d", s1, s2, s3, w1, w2, w3)
	}
	if s1 != 2*g.M() {
		t.Errorf("Σdeg = %d, want 2m = %d", s1, 2*g.M())
	}
}

// TestMemoizedQuantitiesStable asserts repeated calls return identical
// (and, for maps, the shared) results.
func TestMemoizedQuantitiesStable(t *testing.T) {
	g := gnp(80, 0.15, 1, 31)
	if g.Triangles() != g.Triangles() {
		t.Error("Triangles not stable")
	}
	if g.FourCycles() != g.FourCycles() {
		t.Error("FourCycles not stable")
	}
	l1 := g.TriangleLoads()
	l2 := g.TriangleLoads()
	if reflect.ValueOf(l1).Pointer() != reflect.ValueOf(l2).Pointer() {
		t.Error("TriangleLoads should return the shared memoized map")
	}
	if g.Motifs() != g.Motifs() {
		t.Error("Motifs not stable")
	}
}

// TestCSRInvariants checks the index structure directly: monotone row
// pointers, sorted rows that round-trip to the map adjacency, a complete
// canonical edge indexing, the rank as each vertex's position in the
// (degree, id) order, and the O(√m)-out-degree orientation with each
// oriented arc carrying its canonical edge id.
func TestCSRInvariants(t *testing.T) {
	graphs := workloadGraphs(t)
	for name, mk := range shardedGraphs() {
		graphs[name] = mk
	}
	for name, mk := range graphs {
		t.Run(name, func(t *testing.T) {
			g := mk()
			c := g.csr()
			n := len(c.verts)
			rank := g.rankRef()
			for v := 0; v < n; v++ {
				if got, want := c.rank[v], rank[c.verts[v]]; int(got) != want {
					t.Fatalf("rank of %d = %d, want %d", c.verts[v], got, want)
				}
			}
			if n != g.N() {
				t.Fatalf("verts = %d, want %d", n, g.N())
			}
			if c.rowPtr[n] != 2*g.M() {
				t.Fatalf("rowPtr[n] = %d, want 2m = %d", c.rowPtr[n], 2*g.M())
			}
			if c.upOff[n] != g.M() {
				t.Fatalf("upOff[n] = %d, want m = %d", c.upOff[n], g.M())
			}
			seen := make(map[int64]bool)
			for v := 0; v < n; v++ {
				if c.rowPtr[v] > c.rowPtr[v+1] {
					t.Fatalf("rowPtr not monotone at %d", v)
				}
				row := c.row(int32(v))
				want := g.Neighbors(c.verts[v])
				if len(row) != len(want) {
					t.Fatalf("row %d has %d entries, want %d", v, len(row), len(want))
				}
				for i, u := range row {
					if c.verts[u] != want[i] {
						t.Fatalf("row %d entry %d = %d, want %d", v, i, c.verts[u], want[i])
					}
					if i > 0 && row[i-1] >= u {
						t.Fatalf("row %d not strictly ascending", v)
					}
				}
				for j := c.upStart[v]; j < c.rowPtr[v+1]; j++ {
					if c.colIdx[j] <= int32(v) {
						t.Fatalf("canonical segment of row %d contains %d", v, c.colIdx[j])
					}
					id := c.upOff[v] + (j - c.upStart[v])
					if seen[id] {
						t.Fatalf("duplicate edge id %d", id)
					}
					seen[id] = true
					if got := c.edgeID(int32(v), c.colIdx[j]); got != id {
						t.Fatalf("edgeID = %d, want %d", got, id)
					}
					if got := c.edgeID(c.colIdx[j], int32(v)); got != id {
						t.Fatalf("edgeID (swapped) = %d, want %d", got, id)
					}
				}
				out, outEdge := c.out(int32(v))
				for i, u := range out {
					if c.rank[u] <= c.rank[v] {
						t.Fatalf("out row %d contains lower rank %d", v, u)
					}
					if i > 0 && out[i-1] >= u {
						t.Fatalf("out row %d not ascending", v)
					}
					if got, want := outEdge[i], c.edgeID(int32(v), u); got != want {
						t.Fatalf("out arc %d→%d has edge id %d, want %d", v, u, got, want)
					}
				}
				higher := 0
				for _, u := range row {
					if c.rank[u] > c.rank[v] {
						higher++
					}
				}
				if len(out) != higher {
					t.Fatalf("out row %d has %d arcs, want %d", v, len(out), higher)
				}
			}
			if int64(len(seen)) != g.M() {
				t.Fatalf("indexed %d edges, want %d", len(seen), g.M())
			}
		})
	}
}

// edgeID returns the canonical id of the undirected edge between u and v,
// from its definition: upOff[a] plus b's place in row a's part above a,
// found by binary search.
func (c *csr) edgeID(u, v int32) int64 {
	a, b := min(u, v), max(u, v)
	j, _ := slices.BinarySearch(c.colIdx[c.upStart[a]:c.rowPtr[a+1]], b)
	return c.upOff[a] + int64(j)
}

// FuzzCSRKernels builds graphs from fuzzer-chosen edges over deliberately
// non-contiguous vertex ids and cross-checks the CSR kernels against the
// map-based oracles.
func FuzzCSRKernels(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 0})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3})
	f.Add([]byte{10, 20, 20, 30, 30, 40, 40, 10, 5, 10})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := NewBuilder()
		for i := 0; i+1 < len(data) && i < 60; i += 2 {
			// Spread ids so dense renumbering is exercised; mix two
			// strides so gaps are irregular.
			u := V(int64(data[i]) * 1_000_003)
			v := V(int64(data[i+1])*977 + 1)
			if u != v {
				b.AddIfAbsent(u, v)
			}
		}
		g := b.Graph()
		if got, want := g.Triangles(), g.trianglesRef(); got != want {
			t.Fatalf("Triangles = %d, want %d", got, want)
		}
		if got, want := g.FourCycles(), g.fourCyclesRef(); got != want {
			t.Fatalf("FourCycles = %d, want %d", got, want)
		}
		if got, want := g.TriangleLoads(), g.triangleLoadsRef(); !reflect.DeepEqual(got, want) {
			t.Fatalf("TriangleLoads = %v, want %v", got, want)
		}
		got5, err := g.CountCycles(5)
		if err != nil {
			t.Fatal(err)
		}
		want5, err := g.countCyclesRef(5)
		if err != nil {
			t.Fatal(err)
		}
		if got5 != want5 {
			t.Fatalf("CountCycles(5) = %d, want %d", got5, want5)
		}
		c := g.csr()
		if c.rowPtr[len(c.verts)] != 2*g.M() || c.upOff[len(c.verts)] != g.M() {
			t.Fatalf("CSR shape: rowPtr end %d (2m=%d), upOff end %d (m=%d)",
				c.rowPtr[len(c.verts)], 2*g.M(), c.upOff[len(c.verts)], g.M())
		}
	})
}
