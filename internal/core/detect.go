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

// init empties the detector and threads its records through the kind-0
// lists of lists, keeping its memory.
func (d *detector) init(lists *vertexLists) {
	d.recs.init(lists, 0)
	d.byEdge.Reset()
	d.free = d.free[:0]
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

// retire takes the records on owner's list off the lists, in the pass
// after sampling, as owner's list starts. A record enters the sample in the
// list of its first endpoint, so every record still on owner's list has
// posFirst at this list, and that pass looks for apexes only before
// posFirst: the record can add no pair any more. Retired records stay alive
// for the pairs that hold them.
func (d *detector) retire(owner graph.V) { d.recs.detach(owner) }

// len returns the number of live tracked edges.
func (d *detector) len() int { return d.recs.live }

// load counts, in the counting pass, the adjacency lists that name both
// endpoints {x,y} of its bag node — the apexes of triangles on {x,y} —
// from the list after it was made. One load serves every watcher of {x,y};
// refs counts them, and the last to leave removes it.
type load struct {
	count int64
	refs  int32
}

// watcher reads one H value off a load: H_{e′,τ}, the number of lists
// after position thresh that close e′, when thresh is the position of τ's
// apex with respect to e′ (or the exact triangle load T(e′) when thresh is
// 0). base is the load's count when the counting pass reached list
// thresh+1, so H is the final count minus base. A watcher whose base is
// still to be read sits at index queued of the pending queue.
type watcher struct {
	load   int32 // load slot; -1 while the watcher is unregistered
	queued int32 // index in triState.pending; -1 when not queued
	thresh int
	base   int64
}

// triState is the tracked state of the triangle estimators: the sampled
// edges' records (kind 0) and the loads their pairs' watchers read (kind
// 1), threaded through one vertex index so each stream item looks its
// neighbour up once for both. The three watchers of the triangle pair at
// index j of the pair store (reservoir slot, or collection index) are
// watch[3j], watch[3j+1] and watch[3j+2].
type triState struct {
	lists    vertexLists
	det      detector
	shared   bag[load]  // the loads, one per watched edge
	byEdge   flat.Table // packed edge → load slot
	freeLoad []int32    // load slots released by their last watcher
	watch    []watcher
	pending  []int32 // min-heap of watcher ids by thresh: bases still to read
}

// init empties st, keeping its memory. st must not move afterwards: its
// slab and bag point at st.lists.
func (st *triState) init() {
	st.lists.reset()
	st.det.init(&st.lists)
	st.shared.init(&st.lists, 1)
	st.byEdge.Reset()
	st.freeLoad = st.freeLoad[:0]
	st.watch = st.watch[:0]
	st.pending = st.pending[:0]
}

// touch marks nbr's appearance in the current list on the tracked edges
// (when recs) and on the loads (when loads), with one lookup of nbr. A load
// counts the list at its second touch.
func (st *triState) touch(nbr graph.V, recs, loads bool) {
	e := st.lists.find(nbr)
	if e == nil {
		return
	}
	if recs {
		st.det.recs.touch(st.lists.ids(e[0]))
	}
	if loads {
		for _, id := range st.lists.ids(e[1]) {
			if st.shared.closes(id) {
				st.shared.ent[id].val.count++
			}
		}
	}
}

// startList begins the list at position pos of the counting pass: every
// queued watcher whose threshold lies below pos reads its base.
func (st *triState) startList(pos int) {
	st.shared.nextList()
	st.settle(pos)
}

// settle reads the base of every queued watcher whose threshold lies below
// pos. At the end of the counting pass, settle(math.MaxInt) reads the rest,
// whose H is then 0.
func (st *triState) settle(pos int) {
	for len(st.pending) > 0 {
		w := &st.watch[st.pending[0]]
		if w.thresh >= pos {
			return
		}
		w.base = st.shared.ent[w.load].val.count
		st.unqueue(st.pending[0])
	}
}

// trianglePair is a collected (sampled edge, triangle) pair: the edge's
// record and the triangle's apex. Its watchers live at the watcher slots
// its index determines (see triState).
type trianglePair struct {
	rec  ref
	apex graph.V
}

// watchPair points the three watchers of the pair at index j at the loads
// of {u,v}, {u,apex} and {v,apex}, with thresholds t[0], t[1] and t[2],
// once the counting pass has finished the lists up to position pos (0
// before it starts). No threshold lies below pos.
func (st *triState) watchPair(j int, u, v, apex graph.V, t [3]int, pos int) {
	st.watchers(j) // grows the watcher array to reach pair j
	w := int32(3 * j)
	st.watchEdge(w, u, v, t[0], pos)
	st.watchEdge(w+1, u, apex, t[1], pos)
	st.watchEdge(w+2, v, apex, t[2], pos)
}

// watchers returns the three watchers of the pair at index j, growing the
// watcher array to reach them.
func (st *triState) watchers(j int) []watcher {
	for len(st.watch) < 3*j+3 {
		st.watch = append(st.watch, watcher{load: -1, queued: -1})
	}
	return st.watch[3*j : 3*j+3]
}

// watchEdge points the unregistered watcher w at the load of {x,y}, making
// the load if no watcher reads it yet. A threshold at pos reads its base
// now — the load has counted every list up to pos that it will count — and
// a later one is queued, or re-keyed if w's previous occupant was queued.
func (st *triState) watchEdge(w int32, x, y graph.V, thresh, pos int) {
	key := sampling.PackEdge(x, y)
	id, ok := st.byEdge.Get(key)
	if !ok {
		id = int32(len(st.shared.ent))
		if n := len(st.freeLoad); n > 0 {
			id, st.freeLoad = st.freeLoad[n-1], st.freeLoad[:n-1]
		}
		st.shared.put(id, x, y, load{})
		st.byEdge.Put(key, id)
	}
	l := &st.shared.ent[id]
	l.val.refs++
	wt := &st.watch[w]
	wt.load, wt.thresh = id, thresh
	if thresh <= pos {
		wt.base = l.val.count
		st.unqueue(w)
	} else {
		st.queue(w)
	}
}

// unwatchPair unregisters the watchers of the pair at index j, removing
// each load no other watcher reads. Their queue entries stay for the
// watchers that take their places to re-key.
func (st *triState) unwatchPair(j int) {
	for w := 3 * j; w < 3*j+3; w++ {
		id := st.watch[w].load
		if id < 0 {
			continue
		}
		st.watch[w].load = -1
		l := &st.shared.ent[id]
		if l.val.refs--; l.val.refs > 0 {
			continue
		}
		st.byEdge.Delete(sampling.PackEdge(graph.V(l.at[0]), graph.V(l.at[1])))
		st.shared.remove(id)
		st.freeLoad = append(st.freeLoad, id)
	}
}

// queue puts watcher w on the pending queue at its threshold, or moves it
// there if it is queued already. The queue thus holds each watcher at most
// once.
func (st *triState) queue(w int32) {
	i := st.watch[w].queued
	if i < 0 {
		i = int32(len(st.pending))
		st.pending = append(st.pending, w)
		st.watch[w].queued = i
	}
	st.fix(i)
}

// unqueue takes watcher w off the pending queue, if it is on it.
func (st *triState) unqueue(w int32) {
	i := st.watch[w].queued
	if i < 0 {
		return
	}
	st.watch[w].queued = -1
	last := int32(len(st.pending) - 1)
	moved := st.pending[last]
	st.pending = st.pending[:last]
	if i != last {
		st.pending[i] = moved
		st.watch[moved].queued = i
		st.fix(i)
	}
}

// fix restores the queue's heap order around index i.
func (st *triState) fix(i int32) {
	h, w := st.pending, st.watch
	id := h[i]
	t := w[id].thresh
	for i > 0 {
		p := (i - 1) / 2
		if w[h[p]].thresh <= t {
			break
		}
		h[i] = h[p]
		w[h[i]].queued = i
		i = p
	}
	for n := int32(len(h)); ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && w[h[c+1]].thresh < w[h[c]].thresh {
			c++
		}
		if t <= w[h[c]].thresh {
			break
		}
		h[i] = h[c]
		w[h[i]].queued = i
		i = c
	}
	h[i] = id
	w[id].queued = i
}

// edge returns the endpoints (u < v) of the pair's sampled edge.
func (st *triState) edge(pr trianglePair) (u, v graph.V) {
	at := st.det.recs.ent[pr.rec.id].at
	return graph.V(at[0]), graph.V(at[1])
}

// loads returns the H values of the pair at index j: those of {u,v},
// {u,apex} and {v,apex}. They are final once the counting pass has ended;
// before a watcher is registered its H reads 0.
func (st *triState) loads(j int) [3]int64 {
	var h [3]int64
	for i, w := range st.watchers(j) {
		if w.load >= 0 {
			h[i] = st.shared.ent[w.load].val.count - w.base
		}
	}
	return h
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
