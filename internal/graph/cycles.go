package graph

import (
	"context"
	"fmt"
)

func errCycleLen(l int) error { return fmt.Errorf("graph: cycle length %d < 3", l) }

// CountCycles returns the exact number of simple cycles of length exactly l
// in g, for l >= 3. It uses canonical DFS enumeration over the CSR index:
// each cycle is discovered from its minimum vertex and counted once (each
// undirected cycle is traversed in two directions, so the raw count is
// halved). Start vertices are sharded across the kernel worker pool, each
// worker carrying its own dense on-path bitmap.
//
// The running time is output- and degree-sensitive (O(n · Δ^{l-1}) worst
// case); it is intended as ground truth for gadget graphs and test-scale
// workloads, not for massive inputs.
func (g *Graph) CountCycles(l int) (int64, error) {
	return g.CountCyclesContext(context.Background(), l)
}

// CountCyclesContext is CountCycles under ctx. For l >= 5 the search polls
// ctx before each start vertex and every pollEvery path extensions, so one
// hub cannot outlast a deadline, and it returns ctx's error once ctx fires.
// The triangle and 4-cycle kernels (l = 3, 4) run to completion.
func (g *Graph) CountCyclesContext(ctx context.Context, l int) (int64, error) {
	if l < 3 {
		return 0, errCycleLen(l)
	}
	switch l {
	case 3:
		return g.Triangles(), nil
	case 4:
		return g.FourCycles(), nil
	}
	c := g.csr()
	a := reduceShards(c,
		func() *cycleWalk { return newCycleWalk(ctx, c, l) },
		(*cycleWalk).from,
		func(dst, src *cycleWalk) { dst.count += src.count })
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return a.count / 2, nil
}

// pollEvery is the number of path extensions between two polls of the
// context in a cycle search.
const pollEvery = 4096

// cycleWalk is one worker's canonical cycle search: paths from start whose
// internal vertices all lie above start in dense order (which coincides
// with vertex-name order), closed back to start at length l.
type cycleWalk struct {
	c      *csr
	ctx    context.Context
	l      int
	onPath []bool
	start  int32
	count  int64 // closed paths found: each cycle twice, once per direction
	first  bool  // stop at the first closed path
	stop   bool  // ctx fired, or first is set and a path closed
	budget int   // extensions left before the next poll of ctx
}

func newCycleWalk(ctx context.Context, c *csr, l int) *cycleWalk {
	return &cycleWalk{c: c, ctx: ctx, l: l, onPath: make([]bool, len(c.verts)), budget: pollEvery}
}

// from searches the cycles whose minimum vertex is s.
func (w *cycleWalk) from(s int32) {
	if w.stop = w.stop || w.ctx.Err() != nil; w.stop {
		return
	}
	w.start = s
	w.onPath[s] = true
	w.extend(s, 0)
	w.onPath[s] = false
}

func (w *cycleWalk) extend(cur int32, depth int) {
	if depth == w.l-1 {
		if w.c.hasArc(cur, w.start) {
			w.count++
			w.stop = w.first
		}
		return
	}
	for _, nxt := range w.c.row(cur) {
		if nxt <= w.start || w.onPath[nxt] {
			continue
		}
		if w.budget--; w.budget == 0 {
			w.budget = pollEvery
			w.stop = w.stop || w.ctx.Err() != nil
		}
		if w.stop {
			return
		}
		w.onPath[nxt] = true
		w.extend(nxt, depth+1)
		w.onPath[nxt] = false
	}
}

// HasCycleOfLength reports whether g contains at least one simple cycle of
// length exactly l, with early exit.
func (g *Graph) HasCycleOfLength(l int) (bool, error) {
	if l < 3 {
		return false, errCycleLen(l)
	}
	c := g.csr()
	w := newCycleWalk(context.Background(), c, l)
	w.first = true
	for s := 0; s < len(c.verts) && !w.stop; s++ {
		w.from(int32(s))
	}
	return w.count > 0, nil
}

// Girth returns the length of a shortest cycle in g, or 0 if g is acyclic.
// It runs a truncated BFS from every vertex over the CSR rows.
func (g *Graph) Girth() int {
	c := g.csr()
	n := len(c.verts)
	best := 0
	const unseen = -1
	dist := make([]int32, n)
	parent := make([]int32, n)
	queue := make([]int32, 0, n)
	for s := 0; s < n; s++ {
		for i := range dist {
			dist[i] = unseen
			parent[i] = unseen
		}
		dist[s] = 0
		queue = append(queue[:0], int32(s))
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			if best > 0 && 2*int(dist[u]) >= best {
				break
			}
			for _, w := range c.row(u) {
				if dist[w] == unseen {
					dist[w] = dist[u] + 1
					parent[w] = u
					queue = append(queue, w)
				} else if parent[u] != w && parent[w] != u {
					// Cycle through s of length dist[u]+dist[w]+1 (may
					// overestimate for cycles not through s; the minimum
					// over all start vertices is exact).
					cl := int(dist[u]) + int(dist[w]) + 1
					if best == 0 || cl < best {
						best = cl
					}
				}
			}
		}
	}
	return best
}
