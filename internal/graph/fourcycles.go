package graph

// Wedge is a path of length two: Center is adjacent to both A and B, with
// A < B in canonical form.
type Wedge struct {
	A, Center, B V
}

// Norm returns the canonical form with A < B.
func (w Wedge) Norm() Wedge {
	if w.A > w.B {
		return Wedge{w.B, w.Center, w.A}
	}
	return w
}

// Edges returns the two edges of the wedge in canonical orientation.
func (w Wedge) Edges() [2]Edge {
	return [2]Edge{Edge{w.A, w.Center}.Norm(), Edge{w.Center, w.B}.Norm()}
}

// FourCycle is a 4-cycle stored by its two diagonals: {P,Q} and {R,S} are the
// opposite (non-adjacent-in-the-cycle) vertex pairs, so the cycle visits
// P-R-Q-S. The canonical form has P < Q, R < S, and P < R (P is the minimum
// vertex of the cycle, which always lies on exactly one diagonal).
type FourCycle struct {
	P, Q, R, S V
}

// Wedges returns the four wedges of the cycle in canonical form.
func (c FourCycle) Wedges() [4]Wedge {
	return [4]Wedge{
		Wedge{c.P, c.R, c.Q}.Norm(),
		Wedge{c.P, c.S, c.Q}.Norm(),
		Wedge{c.R, c.P, c.S}.Norm(),
		Wedge{c.R, c.Q, c.S}.Norm(),
	}
}

// Edges returns the four edges of the cycle in canonical orientation.
func (c FourCycle) Edges() [4]Edge {
	return [4]Edge{
		Edge{c.P, c.R}.Norm(),
		Edge{c.R, c.Q}.Norm(),
		Edge{c.Q, c.S}.Norm(),
		Edge{c.S, c.P}.Norm(),
	}
}

// FourCycles returns the exact number of 4-cycles (C4 subgraphs; chords are
// irrelevant) in g. The count is computed once, sharded across the kernel
// worker pool on large graphs, and memoized.
func (g *Graph) FourCycles() int64 {
	g.fourOnce.Do(func() { g.fourCount = g.computeFourCycles() })
	return g.fourCount
}

// computeFourCycles is the unmemoized kernel behind FourCycles. It counts
// each 4-cycle once, at its top-ranked vertex u and the vertex w opposite
// u: the k 2-walks u→v→w with v and w ranked below u close C(k,2) cycles.
// A lower-ranked v has deg(v) ≤ deg(u), so the walks cost Σ over edges of
// the smaller endpoint degree, O(a(G)·m) for arboricity a(G) (Chiba and
// Nishizeki 1985), where following every 2-walk costs Σ deg².
func (g *Graph) computeFourCycles() int64 {
	c := g.csr()
	type acc struct {
		count int64
		s     *codegScratch
	}
	a := reduceShards(c,
		func() *acc { return &acc{s: c.getScratch()} },
		func(ac *acc, u int32) {
			top, s, pairs := c.rank[u], ac.s, int64(0)
			for _, v := range c.row(u) {
				if c.rank[v] >= top {
					continue
				}
				for _, w := range c.row(v) {
					if c.rank[w] >= top { // also skips w == u
						continue
					}
					k := s.cnt[w]
					if k == 0 {
						s.touched = append(s.touched, w)
					}
					pairs += int64(k) // the walk pairs with each earlier one to w
					s.cnt[w] = k + 1
				}
			}
			ac.count += pairs
			s.reset()
		},
		func(dst, src *acc) {
			dst.count += src.count
			c.putScratch(src.s)
		})
	c.putScratch(a.s)
	return a.count
}

// ForEachFourCycle calls fn exactly once per 4-cycle in canonical form. Each
// cycle is emitted at the diagonal containing its minimum vertex. The cost
// is O(P2 + Σ_pairs C(codeg,2)); intended for ground truth at test scale.
func (g *Graph) ForEachFourCycle(fn func(c FourCycle)) {
	// Collect common-neighbor lists per pair.
	common := make(map[Edge][]V)
	for i, v := range g.vs {
		ns := g.row(i)
		for i := 0; i < len(ns); i++ {
			for j := i + 1; j < len(ns); j++ {
				k := Edge{ns[i], ns[j]}
				common[k] = append(common[k], v)
			}
		}
	}
	for pair, cs := range common {
		if len(cs) < 2 {
			continue
		}
		for i := 0; i < len(cs); i++ {
			for j := i + 1; j < len(cs); j++ {
				r, s := cs[i], cs[j]
				if r > s {
					r, s = s, r
				}
				// Emit only at the diagonal holding the minimum vertex, so
				// each cycle appears exactly once.
				if pair.U < r {
					fn(FourCycle{P: pair.U, Q: pair.V, R: r, S: s})
				}
			}
		}
	}
}

// FourCycleWedgeLoads returns, for every wedge contained in at least one
// 4-cycle, the number of 4-cycles containing it (the paper's T_w). The
// wedge a-v-b lies in codeg(a,b)-1 cycles, since every common neighbor of
// a,b other than v closes it. Wedges are produced from their smaller
// endpoint via the scratch 2-walk counts — each worker owns the wedges
// whose min endpoint falls in its shard, so the merged map is identical to
// the sequential result.
func (g *Graph) FourCycleWedgeLoads() map[Wedge]int64 {
	c := g.csr()
	type acc struct {
		loads map[Wedge]int64
		s     *codegScratch
	}
	a := reduceShards(c,
		func() *acc { return &acc{loads: make(map[Wedge]int64), s: c.getScratch()} },
		func(ac *acc, av int32) {
			c.twoWalks(av, ac.s)
			for _, v := range c.row(av) {
				for _, b := range c.row(v) {
					if b > av {
						if cc := ac.s.cnt[b]; cc > 1 {
							ac.loads[Wedge{c.verts[av], c.verts[v], c.verts[b]}] = int64(cc) - 1
						}
					}
				}
			}
			ac.s.reset()
		},
		func(dst, src *acc) {
			for w, l := range src.loads {
				dst.loads[w] = l
			}
			c.putScratch(src.s)
		})
	c.putScratch(a.s)
	return a.loads
}

// FourCycleEdgeLoads returns, for every edge in at least one 4-cycle, the
// number of 4-cycles containing it (the paper's T_e for ℓ=4).
func (g *Graph) FourCycleEdgeLoads() map[Edge]int64 {
	loads := make(map[Edge]int64)
	g.ForEachFourCycle(func(c FourCycle) {
		for _, e := range c.Edges() {
			loads[e]++
		}
	})
	return loads
}

// WedgeFourCycleCount returns the number of 4-cycles containing the wedge
// a-center-b, i.e. the number of common neighbors of a and b other than
// center. It does not require a,b to be adjacent to center (returns the
// closure count for the vertex triple as given).
func (g *Graph) WedgeFourCycleCount(w Wedge) int64 {
	c := int64(g.CommonNeighbors(w.A, w.B))
	if g.HasEdge(w.A, w.Center) && g.HasEdge(w.B, w.Center) {
		c-- // exclude the wedge's own center
	}
	if c < 0 {
		c = 0
	}
	return c
}
