package sampling

import (
	"fmt"

	"adjstream/internal/flat"
	"adjstream/internal/graph"
)

// EdgeSampler decides streaming membership of edges in the sample set S.
// Both samplers share the crucial first-sight property: Offer must be called
// the first time an edge appears (in either orientation), and an edge that
// is in the final sample was accepted at that moment and never left — except
// under bottom-k, which may evict and reports evictions to the caller.
// Vertex ids must lie in [0, graph.MaxV]: membership is keyed on PackEdge.
type EdgeSampler interface {
	// Offer presents edge {u,v} at its first appearance and reports whether
	// it is (currently) in the sample.
	Offer(u, v graph.V) bool
	// Contains reports whether {u,v} is currently in the sample.
	Contains(u, v graph.V) bool
	// Len returns the current sample size.
	Len() int
	// AppendKeys appends the PackEdge keys of the edges currently in the
	// sample to dst, in no particular order, and returns it.
	AppendKeys(dst []uint64) []uint64
	// InclusionScale returns the factor 1/Pr[e ∈ S] used by estimators,
	// given the final number of edges m (needed by bottom-k).
	InclusionScale(m int64) float64
	// PairInclusionProb returns Pr[e ∈ S and f ∈ S] for two fixed distinct
	// edges, given the final number of edges m — the probability that a
	// wedge formed by two sampled edges survives into the final sample.
	PairInclusionProb(m int64) float64
}

// FixedProb includes each edge independently with probability p, decided by
// a seeded hash, so both appearances of an edge agree.
type FixedProb struct {
	seed      uint64
	threshold uint64
	p         float64
	set       flat.Table // packed edge → 0
}

// NewFixedProb returns a hash sampler with inclusion probability p. p must
// lie in (0,1]; anything else (including NaN) is a configuration error — a
// sampler that can never accept an edge turns into a silent zero estimate
// downstream, so the mistake is rejected here instead.
func NewFixedProb(p float64, seed uint64) (*FixedProb, error) {
	f := &FixedProb{}
	if err := f.Init(p, seed); err != nil {
		return nil, err
	}
	return f, nil
}

// Init makes f an empty sampler with inclusion probability p and the given
// seed, as NewFixedProb does, keeping the memory of its set. It rejects p
// as NewFixedProb does, leaving f unchanged.
func (f *FixedProb) Init(p float64, seed uint64) error {
	if !(p > 0 && p <= 1) {
		return fmt.Errorf("sampling: fixed-prob rate %v outside (0,1]", p)
	}
	f.seed, f.threshold, f.p = seed, ProbThreshold(p), p
	f.set.Reset()
	return nil
}

// Offer implements EdgeSampler.
func (f *FixedProb) Offer(u, v graph.V) bool {
	if HashEdge(f.seed, u, v) < f.threshold {
		f.set.Put(PackEdge(u, v), 0)
		return true
	}
	return false
}

// Contains implements EdgeSampler.
func (f *FixedProb) Contains(u, v graph.V) bool {
	_, ok := f.set.Get(PackEdge(u, v))
	return ok
}

// Len implements EdgeSampler.
func (f *FixedProb) Len() int { return f.set.Len() }

// InclusionScale implements EdgeSampler.
func (f *FixedProb) InclusionScale(m int64) float64 {
	if f.p <= 0 {
		return 0
	}
	return 1 / f.p
}

// PairInclusionProb implements EdgeSampler: independent inclusion, p².
func (f *FixedProb) PairInclusionProb(m int64) float64 { return f.p * f.p }

// Edges returns the edges currently in the sample, in canonical
// orientation and no particular order.
func (f *FixedProb) Edges() []graph.Edge {
	keys := f.AppendKeys(make([]uint64, 0, f.set.Len()))
	out := make([]graph.Edge, len(keys))
	for i, key := range keys {
		out[i] = unpackEdge(key)
	}
	return out
}

// AppendKeys implements EdgeSampler.
func (f *FixedProb) AppendKeys(dst []uint64) []uint64 { return f.set.AppendKeys(dst) }

// BottomK keeps the k edges with the smallest hash values seen so far. The
// final sample is a uniformly random size-k subset of the edges (or all of
// them if fewer than k arrive). Because the running threshold (the k-th
// smallest hash) only decreases, every edge in the final sample has been in
// the running sample since its first appearance.
//
// The sample is an array max-heap on hash. Only its root ever leaves (an
// eviction replaces it, Shrink pops it), so no entry needs a position
// index; membership is a set keyed on the packed edge.
type BottomK struct {
	seed    uint64
	k       int
	heap    []hashEntry // max-heap on h; grows on demand up to k entries
	members flat.Table  // packed edge → 0
	onEvict func(graph.Edge)
}

type hashEntry struct {
	key uint64 // PackEdge of the edge
	h   uint64
}

// NewBottomK returns a bottom-k sampler of capacity k. onEvict, if non-nil,
// is invoked whenever a previously accepted edge leaves the sample, letting
// callers discard dependent state (e.g. collected triangles).
func NewBottomK(k int, seed uint64, onEvict func(graph.Edge)) *BottomK {
	b := &BottomK{}
	b.Init(k, seed, onEvict)
	return b
}

// Init makes b an empty bottom-k sampler, as NewBottomK does, keeping the
// memory of its heap and set.
func (b *BottomK) Init(k int, seed uint64, onEvict func(graph.Edge)) {
	if k <= 0 {
		panic("sampling: bottom-k capacity must be positive")
	}
	b.seed, b.k, b.onEvict = seed, k, onEvict
	b.heap = b.heap[:0]
	b.members.Reset()
}

// Offer implements EdgeSampler. Offering an edge that is already in the
// sample is a no-op reporting true, so both stream appearances of an edge
// may be offered safely.
func (b *BottomK) Offer(u, v graph.V) bool {
	hv := HashEdge(b.seed, u, v)
	full := len(b.heap) >= b.k
	if full && hv > b.heap[0].h {
		return false // above the threshold, so neither in the sample nor entering it
	}
	key := PackEdge(u, v)
	if _, ok := b.members.Get(key); ok {
		return true
	}
	if !full {
		b.heap = append(b.heap, hashEntry{key, hv})
		b.up(len(b.heap) - 1)
		b.members.Put(key, 0)
		return true
	}
	if hv == b.heap[0].h {
		return false
	}
	victim := b.heap[0].key
	b.heap[0] = hashEntry{key, hv}
	b.down(0)
	b.members.Delete(victim)
	b.members.Put(key, 0)
	if b.onEvict != nil {
		b.onEvict(unpackEdge(victim))
	}
	return true
}

// Shrink reduces the sampler's capacity to newK (no-op if newK ≥ current),
// evicting the largest-hash edges. Because capacity only decreases, the
// final sample remains exactly the bottom-newK set by hash — a uniformly
// random subset — and every surviving edge has been in the sample since its
// first appearance, preserving the property the two-pass algorithm needs.
// This is what makes adaptive space budgets possible when T is unknown.
func (b *BottomK) Shrink(newK int) {
	if newK < 1 || newK >= b.k {
		return
	}
	b.k = newK
	for len(b.heap) > b.k {
		victim := b.heap[0].key
		last := len(b.heap) - 1
		b.heap[0] = b.heap[last]
		b.heap = b.heap[:last]
		b.down(0)
		b.members.Delete(victim)
		if b.onEvict != nil {
			b.onEvict(unpackEdge(victim))
		}
	}
}

// up restores the heap order from entry i toward the root.
func (b *BottomK) up(i int) {
	e := b.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if b.heap[parent].h >= e.h {
			break
		}
		b.heap[i] = b.heap[parent]
		i = parent
	}
	b.heap[i] = e
}

// down restores the heap order from entry i toward the leaves.
func (b *BottomK) down(i int) {
	n := len(b.heap)
	if i >= n {
		return
	}
	e := b.heap[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && b.heap[c+1].h > b.heap[c].h {
			c++
		}
		if b.heap[c].h <= e.h {
			break
		}
		b.heap[i] = b.heap[c]
		i = c
	}
	b.heap[i] = e
}

// K returns the current capacity.
func (b *BottomK) K() int { return b.k }

// Contains implements EdgeSampler.
func (b *BottomK) Contains(u, v graph.V) bool {
	_, ok := b.members.Get(PackEdge(u, v))
	return ok
}

// Len implements EdgeSampler.
func (b *BottomK) Len() int { return len(b.heap) }

// InclusionScale implements EdgeSampler. For bottom-k the final sample has
// min(k, m) edges, each equally likely, so Pr[e ∈ S] = min(k,m)/m.
func (b *BottomK) InclusionScale(m int64) float64 {
	if m <= 0 {
		return 0
	}
	sz := int64(b.k)
	if m < sz {
		sz = m
	}
	return float64(m) / float64(sz)
}

// PairInclusionProb implements EdgeSampler. The final sample is a uniform
// size-min(k,m) subset, so two fixed edges are both in it with probability
// min(k,m)·(min(k,m)−1) / (m·(m−1)).
func (b *BottomK) PairInclusionProb(m int64) float64 {
	if m < 2 {
		return 1
	}
	sz := int64(b.k)
	if m < sz {
		sz = m
	}
	return float64(sz) * float64(sz-1) / (float64(m) * float64(m-1))
}

// Edges returns the edges currently in the sample, in canonical
// orientation and no particular order.
func (b *BottomK) Edges() []graph.Edge {
	out := make([]graph.Edge, len(b.heap))
	for i, e := range b.heap {
		out[i] = unpackEdge(e.key)
	}
	return out
}

// AppendKeys implements EdgeSampler.
func (b *BottomK) AppendKeys(dst []uint64) []uint64 {
	for _, e := range b.heap {
		dst = append(dst, e.key)
	}
	return dst
}
