package graph

import (
	"fmt"
	"sort"
)

// Delta is a buffer of edge additions and removals staged against an
// immutable base Graph. It is the write side of live ingestion: mutations
// accumulate cheaply in the delta (O(1) per op, no list rebuilding), and
// Apply materializes a new immutable Graph by copy-on-write — only the
// adjacency lists of touched vertices are rebuilt; every untouched vertex
// shares its neighbor slice with the base. Because Apply produces a fresh
// Graph value, all memoized derived quantities (triangle counts, 4-cycle
// counts, degree moments, the CSR index, …) are recomputed lazily on first
// use of the new graph, exactly as for a cold-loaded graph.
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
	e := Edge{u, v}.Norm()
	switch d.state[e] {
	case 1:
		return true
	case -1:
		return false
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

// Apply materializes the delta into a new immutable Graph by copy-on-write:
// adjacency lists of vertices untouched by any staged op are shared with
// the base graph (not copied), touched lists are rebuilt sorted, and
// vertices introduced by staged additions are inserted into the vertex
// order. Vertices whose last edge was removed remain as isolated vertices,
// matching a Builder that saw AddVertex. The base graph is never modified.
// The delta is consumed: any later op on it panics.
func (d *Delta) Apply() *Graph {
	d.checkUsable()
	d.spent = true

	// Per-vertex staged changes, canonical orientation expanded to both
	// endpoints.
	type change struct {
		add []V
		cut map[V]bool
	}
	touched := make(map[V]*change)
	chg := func(v V) *change {
		c, ok := touched[v]
		if !ok {
			c = &change{}
			touched[v] = c
		}
		return c
	}
	for e, st := range d.state {
		switch st {
		case 1:
			chg(e.U).add = append(chg(e.U).add, e.V)
			chg(e.V).add = append(chg(e.V).add, e.U)
		case -1:
			cu, cv := chg(e.U), chg(e.V)
			if cu.cut == nil {
				cu.cut = make(map[V]bool)
			}
			if cv.cut == nil {
				cv.cut = make(map[V]bool)
			}
			cu.cut[e.V] = true
			cv.cut[e.U] = true
		}
	}

	g := &Graph{
		nbr: make(map[V][]V, len(d.base.nbr)+len(touched)),
		m:   d.base.m + int64(d.adds) - int64(d.cuts),
	}
	// Copy-on-write: untouched vertices alias the base's slices.
	for v, ns := range d.base.nbr {
		if _, ok := touched[v]; !ok {
			g.nbr[v] = ns
		}
	}
	var newVerts []V
	for v, c := range touched {
		base := d.base.nbr[v]
		ns := make([]V, 0, len(base)+len(c.add))
		for _, u := range base {
			if !c.cut[u] {
				ns = append(ns, u)
			}
		}
		ns = append(ns, c.add...)
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		g.nbr[v] = ns
		if !d.base.HasVertex(v) {
			newVerts = append(newVerts, v)
		}
	}
	// Vertex order: the base's sorted list merged with any new vertices.
	if len(newVerts) == 0 {
		g.vs = d.base.vs
	} else {
		sort.Slice(newVerts, func(i, j int) bool { return newVerts[i] < newVerts[j] })
		g.vs = mergeSortedV(d.base.vs, newVerts)
	}
	for _, v := range g.vs {
		if deg := len(g.nbr[v]); deg > g.maxD {
			g.maxD = deg
		}
	}
	return g
}

// mergeSortedV merges two sorted, disjoint vertex lists.
func mergeSortedV(a, b []V) []V {
	out := make([]V, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
