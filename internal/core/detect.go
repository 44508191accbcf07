package core

import (
	"adjstream/internal/flat"
	"adjstream/internal/graph"
	"adjstream/internal/sampling"
)

// edgeRec is the tracked state of one sampled edge {u,v} (u < v, the
// endpoints of its slab node): the list positions of its endpoints (filled
// during pass one; -1 while unknown), indexed like the node's endpoints,
// and the position at which it entered the sample. Triangle detection
// touches the node whenever one of its endpoints appears in a list ("flag
// any endpoint of a sampled edge if it appears").
type edgeRec struct {
	pos      [2]int // list positions of u's and v's lists; -1 unknown
	posFirst int    // position at which the edge entered the sample
	hits     int64  // discoveries credited to this edge (naive estimator)
}

// detector keeps one record per sampled edge and reports, at the end of
// each adjacency list, the edges whose both endpoints appeared — i.e. the
// triangles (edge, apex = list owner). It uses O(1) state per tracked
// edge, never O(degree) transient state. A bottom-k eviction removes the
// record at once; its slot goes to the next tracked edge.
type detector struct {
	recs   slab[edgeRec]
	byEdge flat.Table // packed edge → record slot
	free   []int32    // record slots released by evictions
}

// tracked reports whether {u,v} has a record.
func (d *detector) tracked(u, v graph.V) bool {
	_, ok := d.byEdge.Get(sampling.PackEdge(u, v))
	return ok
}

// track registers the edge {owner,nbr} first seen in owner's list at
// position pos, on the lists of both endpoints.
func (d *detector) track(owner, nbr graph.V, pos int) {
	u, v, side := owner, nbr, 0
	if u > v {
		u, v, side = v, u, 1
	}
	rec := edgeRec{pos: [2]int{-1, -1}, posFirst: pos}
	rec.pos[side] = pos
	id := int32(len(d.recs.ent))
	if n := len(d.free); n > 0 {
		id, d.free = d.free[n-1], d.free[:n-1]
	}
	d.recs.put(id, u, v, rec)
	d.byEdge.Put(sampling.PackEdge(u, v), id)
}

// evict removes the record of e (a bottom-k eviction) and returns it; ok
// is false if e has no record.
func (d *detector) evict(e graph.Edge) (rec edgeRec, ok bool) {
	key := sampling.PackEdge(e.U, e.V)
	id, ok := d.byEdge.Get(key)
	if !ok {
		return rec, false
	}
	rec = d.recs.ent[id].val
	d.byEdge.Delete(key)
	d.recs.unlink(id)
	d.free = append(d.free, id)
	return rec, true
}

// notePos records that owner's adjacency list is at position pos, filling
// the endpoint positions of tracked edges incident to owner.
func (d *detector) notePos(owner graph.V, pos int) {
	e := d.recs.lists.find(owner)
	if e == nil {
		return
	}
	for _, id := range d.recs.lists.ids(e[d.recs.kind]) {
		n := &d.recs.ent[id]
		side := 0
		if n.at[1] == uint32(owner) {
			side = 1
		}
		if n.val.pos[side] < 0 {
			n.val.pos[side] = pos
		}
	}
}

// len returns the number of live tracked edges.
func (d *detector) len() int { return d.recs.live }

// watcher counts, during a designated pass, the adjacency lists whose owner
// is adjacent to both endpoints {x,y} of its slab node and arrives at a
// position strictly greater than thresh — exactly the quantity H_{e',τ}
// when thresh is the position of τ's apex with respect to e' = {x,y} (or
// the exact triangle load T(e') when thresh is 0).
type watcher struct {
	thresh int
	count  int64
}

// triState is the tracked state of the triangle estimators: the sampled
// edges' records (kind 0) and the collected triangles' watchers (kind 1),
// threaded through one vertex index so each stream item looks its
// neighbour up once for both. The three watchers of the triangle pair at
// index j of the pair store (reservoir slot, or collection index) occupy
// watcher slots 3j, 3j+1 and 3j+2.
type triState struct {
	lists vertexLists
	det   detector
	watch slab[watcher]
}

func newTriState() *triState {
	st := &triState{}
	st.det.recs = newSlab[edgeRec](&st.lists, 0)
	st.watch = newSlab[watcher](&st.lists, 1)
	return st
}

// touch marks nbr's appearance in the current list on the tracked edges
// (when recs) and on the watchers (when watch), with one lookup of nbr.
func (st *triState) touch(nbr graph.V, recs, watch bool) {
	e := st.lists.find(nbr)
	if e == nil {
		return
	}
	if recs {
		st.det.recs.touch(st.lists.ids(e[0]))
	}
	if watch {
		st.watch.touch(st.lists.ids(e[1]))
	}
}

// finishWatch increments every watcher closed by the list that just ended
// at position pos whose threshold lies below pos.
func (st *triState) finishWatch(pos int) {
	st.watch.finishList(func(id int32) {
		if w := &st.watch.ent[id].val; pos > w.thresh {
			w.count++
		}
	})
}

// trianglePair is a collected (sampled edge, triangle) pair: the edge's
// record and the triangle's apex. Its watchers live at the watcher slots
// its index determines (see triState).
type trianglePair struct {
	rec  ref
	apex graph.V
}

// watchPair registers the three watchers of the pair at index j: one for
// the sampled edge {u,v} with threshold t0, one for {u,apex} with t1 and
// one for {v,apex} with t2.
func (st *triState) watchPair(j int, u, v, apex graph.V, t0, t1, t2 int) {
	base := int32(3 * j)
	st.watch.put(base, u, v, watcher{thresh: t0})
	st.watch.put(base+1, u, apex, watcher{thresh: t1})
	st.watch.put(base+2, v, apex, watcher{thresh: t2})
}

// unwatchPair unlinks the watchers of the pair at index j.
func (st *triState) unwatchPair(j int) {
	for i := int32(3 * j); i < int32(3*j+3); i++ {
		st.watch.unlink(i)
	}
}

// edge returns the endpoints (u < v) of the pair's sampled edge.
func (st *triState) edge(pr trianglePair) (u, v graph.V) {
	at := st.det.recs.ent[pr.rec.id].at
	return graph.V(at[0]), graph.V(at[1])
}

// loads returns the watcher counts of the pair at index j: the loads of
// {u,v}, {u,apex} and {v,apex}.
func (st *triState) loads(j int) [3]int64 {
	w := st.watch.ent[3*j : 3*j+3]
	return [3]int64{w[0].val.count, w[1].val.count, w[2].val.count}
}

// rho reports whether the triangle of the pair at index j has its argmin
// load edge equal to the sampled edge, with ties broken toward the
// lexicographically smallest edge (an intrinsic, sample-independent tie
// break). The pair's record must be live.
func (st *triState) rho(j int, pr trianglePair) bool {
	u, v := st.edge(pr)
	h := st.loads(j)
	sampled := graph.Edge{U: u, V: v}
	best := sampled
	bestH := h[0]
	for i, other := range [2]graph.Edge{
		graph.Edge{U: u, V: pr.apex}.Norm(),
		graph.Edge{U: v, V: pr.apex}.Norm(),
	} {
		if h[i+1] < bestH || (h[i+1] == bestH && edgeLess(other, best)) {
			best, bestH = other, h[i+1]
		}
	}
	return best == sampled
}

func edgeLess(a, b graph.Edge) bool {
	if a.U != b.U {
		return a.U < b.U
	}
	return a.V < b.V
}
