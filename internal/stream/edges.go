package stream

import (
	"adjstream/internal/flat"
	"adjstream/internal/graph"
)

// EdgeStream is an arbitrary-order edge stream: every edge once, in the
// order of its sequence, with the vertex universe that sequence implies.
// It is the storage behind arbitrary.Stream, which builds one with
// NewEdgeStream; it is defined here so that an adjacency-list stream can
// keep its own conversion (Stream.FirstOccurrences). An EdgeStream is
// immutable.
type EdgeStream struct {
	edges []graph.Edge
	n     int64
}

// NewEdgeStream wraps edges, which the caller hands over and must not
// modify afterwards, and measures their vertex universe.
func NewEdgeStream(edges []graph.Edge) *EdgeStream {
	var top graph.V = -1
	for _, e := range edges {
		top = max(top, e.U, e.V)
	}
	return &EdgeStream{edges: edges, n: int64(top) + 1}
}

// Edges returns the stored sequence. It is the stream's own backing array,
// aliasing no caller memory once the stream is built: treat it as
// read-only.
func (s *EdgeStream) Edges() []graph.Edge { return s.edges }

// M returns the number of edges.
func (s *EdgeStream) M() int64 { return int64(len(s.edges)) }

// N returns the vertex-universe size implied by the stream: one past the
// largest endpoint (0 for an empty stream). One-pass estimators in the
// Buriol line need n up front; a stream knows it exactly.
func (s *EdgeStream) N() int64 { return s.n }

// FirstOccurrences returns s as an arbitrary-order edge stream: each edge
// once, in canonical orientation, at the position of its first occurrence
// in s. It is computed on the first call and kept with s, which then holds
// 16 more bytes per edge; every later call, concurrent ones included,
// returns the same EdgeStream.
//
// It relies on s keeping the adjacency-list promise (contiguous lists, no
// self-loop, each edge exactly twice) and checks none of it. Streams built
// in memory keep the promise by validation (FromItems) or by construction
// (FromGraph and the order helpers); a stream decoded from an "adjC" file
// keeps it only on the word of the writer, which accepts only such
// streams, because the decoder checks the file's structure alone. On a
// stream that breaks the promise, such as a corrupt file that repeats an
// item before the neighbour's list starts, the result repeats that edge.
func (s *Stream) FirstOccurrences() *EdgeStream {
	s.firstOnce.Do(func() { s.first = firstOccurrences(s) })
	return s.first
}

// firstOccurrences scans s for FirstOccurrences. Each list is contiguous
// and names each edge once, so an item is its edge's first occurrence
// exactly when the neighbour's list has not started yet.
func firstOccurrences(s *Stream) *EdgeStream {
	var started flat.Table // owners whose list has begun
	edges := make([]graph.Edge, 0, s.M())
	prev := graph.V(-1)
	for _, c := range s.Chunks() {
		for i, owner := range c.Owners {
			if graph.V(owner) != prev {
				prev = graph.V(owner)
				started.Put(uint64(owner), 0)
			}
			if _, ok := started.Get(uint64(c.Nbrs[i])); !ok {
				edges = append(edges, graph.Edge{U: graph.V(owner), V: graph.V(c.Nbrs[i])}.Norm())
			}
		}
	}
	return NewEdgeStream(edges)
}
