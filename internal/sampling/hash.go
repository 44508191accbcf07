package sampling

import "adjstream/internal/graph"

// splitmix64 is the finalizer of the SplitMix64 generator; it is a strong
// 64-bit mixer suitable for hashing.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hash64 hashes x under the given seed.
func Hash64(seed, x uint64) uint64 {
	return splitmix64(splitmix64(seed) ^ splitmix64(x))
}

// HashEdge hashes the undirected edge {u,v} symmetrically under seed: both
// orientations produce the same value, so a sampler can decide membership
// the first time either endpoint's adjacency list presents the edge.
func HashEdge(seed uint64, u, v graph.V) uint64 {
	if u > v {
		u, v = v, u
	}
	return Hash64(seed, splitmix64(uint64(u))^splitmix64(uint64(v))*0x2545f4914f6cdd1d)
}

// ProbThreshold converts an inclusion probability p ∈ [0,1] to a uint64
// threshold such that a uniform hash is below it with probability p. The
// mapping is monotone in p and reaches ^uint64(0) only at p ≥ 1: the scaled
// product is clamped before the float→uint64 conversion, because converting
// a float64 ≥ 2^64 to uint64 is implementation-defined in Go and would
// silently corrupt the threshold. NaN maps to 0 (nothing sampled) rather
// than leaking through the conversion.
func ProbThreshold(p float64) uint64 {
	switch {
	case p >= 1:
		return ^uint64(0)
	case p > 0:
		v := p * float64(1<<63) * 2
		if v >= float64(1<<63)*2 {
			return ^uint64(0)
		}
		return uint64(v)
	default: // p ≤ 0 or NaN
		return 0
	}
}

// PackEdge returns the undirected edge {u,v} as one word: the smaller
// endpoint in the high 32 bits, the larger in the low 32. Both orientations
// pack alike, and distinct edges pack distinctly because vertex ids lie in
// [0, graph.MaxV] = [0, 2³²−1], which every stream input enforces.
func PackEdge(u, v graph.V) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(uint32(v))
}

// unpackEdge inverts PackEdge, returning the canonical edge (U < V).
func unpackEdge(key uint64) graph.Edge {
	return graph.Edge{U: graph.V(key >> 32), V: graph.V(uint32(key))}
}
