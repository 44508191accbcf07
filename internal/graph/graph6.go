package graph

import (
	"fmt"
	"strings"
)

// Graph6 encodes g in the graph6 format used by nauty, geng and the
// combinatorial graph repositories — handy for importing extremal graphs
// (e.g. known C4-free graphs) into the experiments. Vertices are relabeled
// to 0..n-1 in sorted order; the format stores the upper-triangular
// adjacency matrix, so it suits small-to-medium dense graphs.
func (g *Graph) Graph6() (string, error) {
	n := len(g.vs)
	if n > 258047 {
		return "", fmt.Errorf("graph: graph6 supports at most 258047 vertices, have %d", n)
	}
	var b strings.Builder
	// N(n).
	switch {
	case n <= 62:
		b.WriteByte(byte(n + 63))
	default:
		b.WriteByte(126)
		b.WriteByte(byte((n>>12)&63) + 63)
		b.WriteByte(byte((n>>6)&63) + 63)
		b.WriteByte(byte(n&63) + 63)
	}
	// R(x): upper-triangle bits, column by column.
	var acc, bits int
	flush := func(bit int) {
		acc = acc<<1 | bit
		bits++
		if bits == 6 {
			b.WriteByte(byte(acc + 63))
			acc, bits = 0, 0
		}
	}
	for j := 1; j < n; j++ {
		// Row j ascends like the vertex list, so one cursor walks it.
		row, p := g.row(j), 0
		for i := 0; i < j; i++ {
			bit := 0
			if p < len(row) && row[p] == g.vs[i] {
				bit = 1
				p++
			}
			flush(bit)
		}
	}
	if bits > 0 {
		acc <<= uint(6 - bits)
		b.WriteByte(byte(acc + 63))
	}
	return b.String(), nil
}

// FromGraph6 decodes a graph6 string (with or without the optional
// ">>graph6<<" header) into a graph on vertices 0..n-1.
func FromGraph6(s string) (*Graph, error) {
	s = strings.TrimPrefix(s, ">>graph6<<")
	s = strings.TrimSpace(s)
	if len(s) == 0 {
		return nil, fmt.Errorf("graph: empty graph6 string")
	}
	data := []byte(s)
	for i, c := range data {
		if (c < 63 || c > 126) && !(i == 0 && c == 126) {
			return nil, fmt.Errorf("graph: graph6 byte %d out of range at position %d", c, i)
		}
	}
	var n int
	pos := 0
	if data[0] == 126 {
		if len(data) >= 2 && data[1] == 126 {
			return nil, fmt.Errorf("graph: graph6 giant-n form not supported")
		}
		if len(data) < 4 {
			return nil, fmt.Errorf("graph: truncated graph6 header")
		}
		n = int(data[1]-63)<<12 | int(data[2]-63)<<6 | int(data[3]-63)
		pos = 4
	} else {
		n = int(data[0] - 63)
		pos = 1
	}
	if n < 0 {
		return nil, fmt.Errorf("graph: negative graph6 size")
	}
	needBits := n * (n - 1) / 2
	needBytes := (needBits + 5) / 6
	if len(data)-pos != needBytes {
		return nil, fmt.Errorf("graph: graph6 body has %d bytes, want %d for n=%d", len(data)-pos, needBytes, n)
	}
	b := NewBuilder()
	for v := 0; v < n; v++ {
		b.AddVertex(V(v))
	}
	bit := 0
	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			byteIdx := pos + bit/6
			shift := 5 - bit%6
			if (data[byteIdx]-63)>>uint(shift)&1 == 1 {
				if err := b.Add(V(i), V(j)); err != nil {
					return nil, fmt.Errorf("graph: graph6 decode: %w", err)
				}
			}
			bit++
		}
	}
	// Padding bits must be zero.
	for ; bit < needBytes*6; bit++ {
		byteIdx := pos + bit/6
		shift := 5 - bit%6
		if (data[byteIdx]-63)>>uint(shift)&1 == 1 {
			return nil, fmt.Errorf("graph: graph6 padding bit set")
		}
	}
	return b.Graph(), nil
}
