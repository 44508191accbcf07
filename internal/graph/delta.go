package graph

import (
	"fmt"
	"slices"
)

// Delta is a buffer of edge additions and removals staged against an
// immutable base Graph. It is the write side of live ingestion: mutations
// accumulate cheaply in the delta (O(1) per op, no list rebuilding), and
// Apply materializes a new immutable Graph in one merge pass — only the
// rows of touched vertices are merged; the untouched rows between them are
// copied as whole blocks. Because Apply produces a fresh Graph value, all
// memoized derived quantities (triangle counts, 4-cycle counts, degree
// moments, the kernel index, …) are recomputed lazily on first use of the
// new graph, exactly as for a cold-loaded graph.
//
// Every mutation is validated at staging time against the delta's current
// view (base plus staged ops): adding a present edge, removing an absent
// edge, self-loops and ids outside [0, MaxV] are errors and leave the
// delta unchanged. A Delta
// is not safe for concurrent use; callers serialize mutations (the serve
// layer holds one delta per dataset behind a mutex). After Apply the delta
// is exhausted: further ops panic, so a stale buffer can never be applied
// against the wrong base.
type Delta struct {
	base *Graph
	// state tracks staged edges in canonical orientation: +1 staged add,
	// -1 staged remove. Edges in neither state follow the base.
	state map[Edge]int8
	adds  int // staged additions (base-absent edges now present)
	cuts  int // staged removals (base-present edges now absent)
	spent bool
}

// NewDelta returns an empty delta over base. A nil base stages against the
// empty graph.
func NewDelta(base *Graph) *Delta {
	if base == nil {
		base = &Graph{}
	}
	return &Delta{base: base, state: make(map[Edge]int8)}
}

// Base returns the graph the delta stages against.
func (d *Delta) Base() *Graph { return d.base }

// Ops returns the number of staged net changes (adds plus removes). A
// canceled pair — an edge added then removed, or removed then re-added —
// contributes zero.
func (d *Delta) Ops() int { return d.adds + d.cuts }

// Adds returns the number of staged net additions.
func (d *Delta) Adds() int { return d.adds }

// Removes returns the number of staged net removals.
func (d *Delta) Removes() int { return d.cuts }

// Empty reports whether the delta stages no net change.
func (d *Delta) Empty() bool { return len(d.state) == 0 }

// Present reports whether {u,v} is an edge of the delta's current view
// (base plus staged ops).
func (d *Delta) Present(u, v V) bool {
	if st := d.state[Edge{u, v}.Norm()]; st != 0 {
		return st > 0
	}
	return d.base.HasEdge(u, v)
}

// checkUsable panics if the delta was already applied.
func (d *Delta) checkUsable() {
	if d.spent {
		panic("graph: Delta used after Apply")
	}
}

// Add stages the addition of {u,v}. It is an error if the edge is already
// present in the delta's view, if u == v, or if an id lies outside
// [0, MaxV]; on error nothing is staged.
func (d *Delta) Add(u, v V) error {
	d.checkUsable()
	if err := checkV(u); err != nil {
		return err
	}
	if err := checkV(v); err != nil {
		return err
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at vertex %d", u)
	}
	if d.Present(u, v) {
		return fmt.Errorf("graph: edge {%d,%d} already present", u, v)
	}
	e := Edge{u, v}.Norm()
	if d.state[e] == -1 {
		delete(d.state, e) // re-add of a staged removal cancels it
		d.cuts--
	} else {
		d.state[e] = 1
		d.adds++
	}
	return nil
}

// Remove stages the removal of {u,v}. It is an error if an id lies outside
// [0, MaxV] or the edge is absent from the delta's view; on error nothing
// is staged.
func (d *Delta) Remove(u, v V) error {
	d.checkUsable()
	if err := checkV(u); err != nil {
		return err
	}
	if err := checkV(v); err != nil {
		return err
	}
	if !d.Present(u, v) {
		return fmt.Errorf("graph: edge {%d,%d} not present", u, v)
	}
	e := Edge{u, v}.Norm()
	if d.state[e] == 1 {
		delete(d.state, e) // removal of a staged addition cancels it
		d.adds--
	} else {
		d.state[e] = -1
		d.cuts++
	}
	return nil
}

// Apply materializes the delta into a new immutable Graph by one merge pass
// over the base's rows: the staged net changes, sorted as packed
// owner<<32|nbr half-edges, are folded into the rows they touch, every run
// of untouched rows between two touched ones is copied as one block, and
// vertices introduced by staged additions get their rows in vertex order.
// Vertices whose last edge was removed remain as isolated vertices,
// matching a Builder that saw AddVertex. The base graph is never modified.
// The delta is consumed: any later op on it panics.
func (d *Delta) Apply() *Graph {
	d.checkUsable()
	d.spent = true
	base := d.base

	// A staged edge is absent from the base when added and present when
	// removed, so each touched row is its base row with the staged
	// neighbors toggled.
	hs := make([]uint64, 0, 2*len(d.state))
	for e := range d.state {
		hs = append(hs, uint64(e.U)<<32|uint64(e.V), uint64(e.V)<<32|uint64(e.U))
	}
	slices.Sort(hs)
	owner := func(h uint64) V { return V(h >> 32) }
	fresh := 0 // owners the base lacks
	for k := range hs {
		if (k == 0 || owner(hs[k]) != owner(hs[k-1])) && !base.HasVertex(owner(hs[k])) {
			fresh++
		}
	}

	n, m := len(base.vs)+fresh, base.m+int64(d.adds)-int64(d.cuts)
	g := &Graph{vs: base.vs, off: make([]int64, n+1), adj: make([]V, 0, 2*m), m: m}
	if fresh > 0 {
		g.vs = make([]V, 0, n)
	}
	r, i := 0, 0 // next output row, next base row
	// copyRows appends base rows [i, end) as one block.
	copyRows := func(end int) {
		if end == i {
			return
		}
		shift := int64(len(g.adj)) - base.off[i]
		g.adj = append(g.adj, base.adj[base.off[i]:base.off[end]]...)
		for _, o := range base.off[i+1 : end+1] {
			r++
			g.off[r] = o + shift
		}
		if fresh > 0 {
			g.vs = append(g.vs, base.vs[i:end]...)
		}
		i = end
	}
	for k := 0; k < len(hs); {
		o := owner(hs[k])
		j, ok := slices.BinarySearch(base.vs[i:], o)
		copyRows(i + j)
		var row []V
		if ok {
			row = base.row(i)
			i++
		}
		p := 0
		for ; k < len(hs) && owner(hs[k]) == o; k++ {
			u := V(uint32(hs[k]))
			for p < len(row) && row[p] < u {
				g.adj = append(g.adj, row[p])
				p++
			}
			if p < len(row) && row[p] == u {
				p++ // staged removal
			} else {
				g.adj = append(g.adj, u) // staged addition
			}
		}
		g.adj = append(g.adj, row[p:]...)
		r++
		g.off[r] = int64(len(g.adj))
		if fresh > 0 {
			g.vs = append(g.vs, o)
		}
	}
	copyRows(len(base.vs))
	for v := range g.vs {
		g.maxD = max(g.maxD, int(g.off[v+1]-g.off[v]))
	}
	return g
}
