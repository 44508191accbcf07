package arbitrary

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"adjstream/internal/graph"
)

// modelEdges is the arbstream text format decoded by a map-based model of
// ReadEdges: one "u v" per line, blank lines and #-comments skipped, ids in
// [0, graph.MaxV], no self-loop and no edge twice in either orientation.
// ok is false exactly when ReadEdges must reject the input.
func modelEdges(in string) (edges []graph.Edge, ok bool) {
	seen := make(map[graph.Edge]bool)
	for _, line := range strings.Split(in, "\n") {
		text := strings.TrimSpace(line)
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, false
		}
		var ids [2]graph.V
		for i, f := range fields {
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil || v < 0 || graph.V(v) > graph.MaxV {
				return nil, false
			}
			ids[i] = graph.V(v)
		}
		e := graph.Edge{U: ids[0], V: ids[1]}
		if e.U == e.V || seen[e.Norm()] {
			return nil, false
		}
		seen[e.Norm()] = true
		edges = append(edges, e)
	}
	return edges, true
}

// FuzzReadEdges checks the arbstream decoder that ReadArbitraryStream and
// cyclecount read from disk: it never panics, it accepts exactly what the
// map-based model accepts (so an id outside [0, graph.MaxV], a self-loop or
// a duplicate edge in either orientation is an error), it keeps the file's
// edge order, and every accepted stream round-trips through its text form.
func FuzzReadEdges(f *testing.F) {
	f.Add("0 1\n1 2\n2 0\n")
	f.Add("# comment\n\n  3\t4  \r\n5 6")
	f.Add("1 1\n")
	f.Add("0 1\n1 0\n")
	f.Add("-1 2\n")
	f.Add("4294967295 0\n4294967296 1\n")
	f.Add("1 2 3\n")
	f.Add("a b\n")
	f.Add("+7 0009\n")
	f.Fuzz(func(t *testing.T, in string) {
		want, ok := modelEdges(in)
		s, err := ReadEdges(strings.NewReader(in))
		if (err == nil) != ok {
			t.Fatalf("ReadEdges err = %v, model accepts = %v", err, ok)
		}
		if err != nil {
			return
		}
		if !slices.Equal(s.Edges(), want) {
			t.Fatalf("edges %v, model %v", s.Edges(), want)
		}
		var buf bytes.Buffer
		for _, e := range s.Edges() {
			fmt.Fprintf(&buf, "%d %d\n", e.U, e.V)
		}
		back, err := ReadEdges(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if !slices.Equal(back.Edges(), s.Edges()) {
			t.Fatalf("round trip changed the edges: %v, want %v", back.Edges(), s.Edges())
		}
	})
}
