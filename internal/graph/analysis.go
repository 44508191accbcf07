package graph

import (
	"fmt"
	"sort"
)

// localTriangleSlice returns the memoized per-vertex triangle counts
// indexed by dense CSR id, computed by a sharded pass over the oriented
// triangle enumeration.
func (g *Graph) localTriangleSlice() []int64 {
	g.localTriOnce.Do(func() { g.localTriSlice = g.computeLocalTriangleSlice() })
	return g.localTriSlice
}

// computeLocalTriangleSlice is the unmemoized kernel behind
// localTriangleSlice (and thus LocalTriangles).
func (g *Graph) computeLocalTriangleSlice() []int64 {
	c := g.csr()
	acc := reduceShards(c,
		func() *[]int64 { s := make([]int64, len(c.verts)); return &s },
		func(acc *[]int64, v int32) {
			s := *acc
			c.triangleScan(v, func(u, w int32, _, _, _ int64) {
				s[v]++
				s[u]++
				s[w]++
			})
		},
		func(dst, src *[]int64) {
			d := *dst
			for i, x := range *src {
				if x != 0 {
					d[i] += x
				}
			}
		})
	return *acc
}

// LocalTriangles returns, for every vertex contained in at least one
// triangle, the number of triangles through it — the per-vertex counts
// behind local clustering coefficients (the quantity the paper's intro
// cites from spam-detection work). The returned map is a fresh copy built
// from the memoized dense counts; callers may modify it.
func (g *Graph) LocalTriangles() map[V]int64 {
	c := g.csr()
	out := make(map[V]int64)
	for v, lt := range g.localTriangleSlice() {
		if lt != 0 {
			out[c.verts[v]] = lt
		}
	}
	return out
}

// LocalClustering returns the local clustering coefficient of v: triangles
// through v divided by C(deg v, 2), or 0 for degree < 2.
func (g *Graph) LocalClustering(v V) float64 {
	d := int64(g.Degree(v))
	if d < 2 {
		return 0
	}
	var t int64
	ns := g.Neighbors(v)
	for i := 0; i < len(ns); i++ {
		for j := i + 1; j < len(ns); j++ {
			if g.HasEdge(ns[i], ns[j]) {
				t++
			}
		}
	}
	return float64(t) / float64(d*(d-1)/2)
}

// AverageLocalClustering returns the mean local clustering coefficient over
// all vertices (Watts–Strogatz average clustering), or 0 for an empty graph.
func (g *Graph) AverageLocalClustering() float64 {
	if len(g.vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range g.vs {
		s += g.LocalClustering(v)
	}
	return s / float64(len(g.vs))
}

// ConnectedComponents returns the vertex sets of the connected components,
// each sorted, ordered by their minimum vertex.
func (g *Graph) ConnectedComponents() [][]V {
	seen := make(map[V]bool, len(g.vs))
	var comps [][]V
	for _, s := range g.vs {
		if seen[s] {
			continue
		}
		comp := []V{s} // in BFS order; comp[qi:] is the queue
		seen[s] = true
		for qi := 0; qi < len(comp); qi++ {
			for _, u := range g.Neighbors(comp[qi]) {
				if !seen[u] {
					seen[u] = true
					comp = append(comp, u)
				}
			}
		}
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		comps = append(comps, comp)
	}
	return comps
}

// Induced returns the subgraph induced on the given vertices. Unknown
// vertices are an error; duplicate entries are ignored.
func (g *Graph) Induced(vs []V) (*Graph, error) {
	keep := make(map[V]bool, len(vs))
	for _, v := range vs {
		if !g.HasVertex(v) {
			return nil, fmt.Errorf("graph: induce: vertex %d not in graph", v)
		}
		keep[v] = true
	}
	b := NewBuilder()
	for v := range keep {
		b.AddVertex(v)
		for _, u := range g.Neighbors(v) {
			if keep[u] && v < u {
				if err := b.Add(v, u); err != nil {
					return nil, err
				}
			}
		}
	}
	return b.Graph(), nil
}

// Degeneracy returns the graph's degeneracy d (the smallest k such that
// every subgraph has a vertex of degree ≤ k) and a degeneracy ordering
// (each vertex has ≤ d neighbors later in the order). Computed with the
// standard bucket peeling algorithm in O(m + n).
func (g *Graph) Degeneracy() (int, []V) {
	n := len(g.vs)
	if n == 0 {
		return 0, nil
	}
	deg := make(map[V]int, n)
	maxd := 0
	for i, v := range g.vs {
		deg[v] = len(g.row(i))
		if deg[v] > maxd {
			maxd = deg[v]
		}
	}
	buckets := make([][]V, maxd+1)
	for _, v := range g.vs {
		buckets[deg[v]] = append(buckets[deg[v]], v)
	}
	removed := make(map[V]bool, n)
	order := make([]V, 0, n)
	degeneracy := 0
	cur := 0
	for len(order) < n {
		// Find the lowest non-empty bucket (entries may be stale).
		if cur > 0 {
			cur--
		}
		var v V
		found := false
		for !found {
			for cur <= maxd && len(buckets[cur]) == 0 {
				cur++
			}
			if cur > maxd {
				break
			}
			last := len(buckets[cur]) - 1
			v = buckets[cur][last]
			buckets[cur] = buckets[cur][:last]
			if !removed[v] && deg[v] == cur {
				found = true
			}
		}
		if !found {
			break
		}
		if cur > degeneracy {
			degeneracy = cur
		}
		removed[v] = true
		order = append(order, v)
		for _, u := range g.Neighbors(v) {
			if removed[u] {
				continue
			}
			deg[u]--
			buckets[deg[u]] = append(buckets[deg[u]], u)
		}
	}
	return degeneracy, order
}

// LocalFourCycles returns, for every vertex on at least one 4-cycle, the
// number of 4-cycles through it ("local butterfly counts" in the bipartite
// motif literature).
func (g *Graph) LocalFourCycles() map[V]int64 {
	out := make(map[V]int64)
	g.ForEachFourCycle(func(c FourCycle) {
		out[c.P]++
		out[c.Q]++
		out[c.R]++
		out[c.S]++
	})
	return out
}

// DegreeHistogram returns counts[d] = number of vertices of degree d.
func (g *Graph) DegreeHistogram() map[int]int {
	h := make(map[int]int)
	for i := range g.vs {
		h[len(g.row(i))]++
	}
	return h
}
