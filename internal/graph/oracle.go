package graph

import "sort"

// This file preserves the original map-based exact kernels as unexported
// reference oracles, reading the graph only through its public accessors. The shipping kernels (triangles.go,
// fourcycles.go, cycles.go, motifs.go) run over the CSR index in csr.go;
// the property tests in csr_test.go and the kernel benchmarks assert that
// the two implementations agree exactly on every workload family.

// rankRef orders vertices by (degree, id); the forward triangle-enumeration
// algorithm directs each edge from lower to higher rank, which bounds the
// out-degree by O(√m) and gives an O(m^{3/2}) enumeration.
func (g *Graph) rankRef() map[V]int {
	vs := make([]V, len(g.vs))
	copy(vs, g.vs)
	sort.Slice(vs, func(i, j int) bool {
		di, dj := g.Degree(vs[i]), g.Degree(vs[j])
		if di != dj {
			return di < dj
		}
		return vs[i] < vs[j]
	})
	r := make(map[V]int, len(vs))
	for i, v := range vs {
		r[v] = i
	}
	return r
}

// forEachTriangleRef is the map-based triangle enumeration: fresh rank and
// orientation maps per call, merge-intersection over per-vertex slices.
func (g *Graph) forEachTriangleRef(fn func(t Triangle)) {
	r := g.rankRef()
	// out[v] = neighbors of v with higher rank, sorted by vertex id.
	out := make(map[V][]V, len(g.vs))
	for _, v := range g.vs {
		rv := r[v]
		var os []V
		for _, u := range g.Neighbors(v) {
			if r[u] > rv {
				os = append(os, u)
			}
		}
		out[v] = os // already sorted: g.Neighbors(v) is sorted
	}
	for _, v := range g.vs {
		ov := out[v]
		for _, u := range ov {
			ou := out[u]
			// Intersect ov and ou by sorted merge.
			i, j := 0, 0
			for i < len(ov) && j < len(ou) {
				switch {
				case ov[i] < ou[j]:
					i++
				case ov[i] > ou[j]:
					j++
				default:
					fn(sortedTriangle(v, u, ov[i]))
					i++
					j++
				}
			}
		}
	}
}

func (g *Graph) trianglesRef() int64 {
	var t int64
	g.forEachTriangleRef(func(Triangle) { t++ })
	return t
}

func (g *Graph) triangleLoadsRef() map[Edge]int64 {
	loads := make(map[Edge]int64)
	g.forEachTriangleRef(func(t Triangle) {
		for _, e := range t.Edges() {
			loads[e]++
		}
	})
	return loads
}

func (g *Graph) maxTriangleLoadRef() int64 {
	var mx int64
	for _, l := range g.triangleLoadsRef() {
		if l > mx {
			mx = l
		}
	}
	return mx
}

func (g *Graph) localTrianglesRef() map[V]int64 {
	out := make(map[V]int64)
	g.forEachTriangleRef(func(t Triangle) {
		out[t.A]++
		out[t.B]++
		out[t.C]++
	})
	return out
}

// coDegreeCountsRef computes the co-degree of every unordered vertex pair
// with at least one common neighbor via a global map, O(P2) time and
// O(#pairs) space.
func (g *Graph) coDegreeCountsRef() map[Edge]int32 {
	cnt := make(map[Edge]int32)
	for _, v := range g.vs {
		ns := g.Neighbors(v)
		for i := 0; i < len(ns); i++ {
			for j := i + 1; j < len(ns); j++ {
				cnt[Edge{ns[i], ns[j]}]++ // ns is sorted, so canonical
			}
		}
	}
	return cnt
}

func (g *Graph) fourCyclesRef() int64 {
	var twice int64
	for _, c := range g.coDegreeCountsRef() {
		cc := int64(c)
		twice += cc * (cc - 1) / 2
	}
	return twice / 2
}

func (g *Graph) fourCycleWedgeLoadsRef() map[Wedge]int64 {
	cod := g.coDegreeCountsRef()
	loads := make(map[Wedge]int64)
	for _, v := range g.vs {
		ns := g.Neighbors(v)
		for i := 0; i < len(ns); i++ {
			for j := i + 1; j < len(ns); j++ {
				c := int64(cod[Edge{ns[i], ns[j]}])
				if c > 1 {
					loads[Wedge{ns[i], v, ns[j]}] = c - 1
				}
			}
		}
	}
	return loads
}

func (g *Graph) countCyclesRef(l int) (int64, error) {
	if l < 3 {
		return 0, errCycleLen(l)
	}
	switch l {
	case 3:
		return g.trianglesRef(), nil
	case 4:
		return g.fourCyclesRef(), nil
	}
	var count int64
	onPath := make(map[V]bool, l)
	var dfs func(start, cur V, depth int)
	dfs = func(start, cur V, depth int) {
		if depth == l-1 {
			if g.HasEdge(cur, start) {
				count++
			}
			return
		}
		for _, nxt := range g.Neighbors(cur) {
			if nxt <= start || onPath[nxt] {
				continue
			}
			onPath[nxt] = true
			dfs(start, nxt, depth+1)
			delete(onPath, nxt)
		}
	}
	for _, s := range g.vs {
		onPath[s] = true
		dfs(s, s, 0)
		delete(onPath, s)
	}
	return count / 2, nil
}

func (g *Graph) wedgeCountRef() int64 {
	var p2 int64
	for _, v := range g.vs {
		d := int64(g.Degree(v))
		p2 += d * (d - 1) / 2
	}
	return p2
}

// tripleCommonRef returns |N(a) ∩ N(b) ∩ N(c)| by three-way sorted merge
// over the map-held neighbor slices.
func (g *Graph) tripleCommonRef(a, b, c V) int64 {
	la, lb, lc := g.Neighbors(a), g.Neighbors(b), g.Neighbors(c)
	i, j, k := 0, 0, 0
	var n int64
	for i < len(la) && j < len(lb) && k < len(lc) {
		x, y, z := la[i], lb[j], lc[k]
		mx := x
		if y > mx {
			mx = y
		}
		if z > mx {
			mx = z
		}
		if x == y && y == z {
			n++
			i++
			j++
			k++
			continue
		}
		if x < mx {
			i++
		}
		if y < mx {
			j++
		}
		if z < mx {
			k++
		}
	}
	return n
}

func (g *Graph) motifsRef() MotifCounts {
	var mc MotifCounts

	t := g.trianglesRef()

	// Path4 and the per-edge degree products.
	for _, u := range g.vs {
		du := int64(g.Degree(u))
		for _, v := range g.Neighbors(u) {
			if u < v {
				dv := int64(g.Degree(v))
				mc.Path4 += (du - 1) * (dv - 1)
			}
		}
	}
	mc.Path4 -= 3 * t

	// Claw.
	for _, v := range g.vs {
		d := int64(g.Degree(v))
		mc.Claw += d * (d - 1) * (d - 2) / 6
	}

	mc.Cycle4 = g.fourCyclesRef()

	// Paw from local triangle counts.
	for v, lt := range g.localTrianglesRef() {
		mc.Paw += lt * int64(g.Degree(v)-2)
	}

	// Diamond from per-edge triangle loads.
	for _, l := range g.triangleLoadsRef() {
		mc.Diamond += l * (l - 1) / 2
	}

	// K4 via triple neighborhood intersections at each triangle; each K4
	// has four triangles, each finding the fourth vertex once.
	var k4x4 int64
	g.forEachTriangleRef(func(tr Triangle) {
		k4x4 += g.tripleCommonRef(tr.A, tr.B, tr.C)
	})
	mc.K4 = k4x4 / 4

	return mc
}
