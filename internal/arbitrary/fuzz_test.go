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
// A line's syntax is checked for the whole file first, then the edges, and
// err carries the text ReadEdges must return, or is nil when it must
// accept the input.
func modelEdges(in string) (edges []graph.Edge, err error) {
	for i, line := range strings.Split(in, "\n") {
		text := strings.TrimSpace(line)
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("arbitrary: line %d: want \"u v\", got %q", i+1, text)
		}
		var ids [2]graph.V
		for j, f := range fields {
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("arbitrary: line %d: %w", i+1, err)
			}
			ids[j] = graph.V(v)
		}
		if ids[0] < 0 || ids[0] > graph.MaxV || ids[1] < 0 || ids[1] > graph.MaxV {
			return nil, fmt.Errorf("arbitrary: line %d: vertex id outside [0, %d]", i+1, graph.MaxV)
		}
		edges = append(edges, graph.Edge{U: ids[0], V: ids[1]})
	}
	seen := make(map[graph.Edge]bool)
	for i, e := range edges {
		if e.U == e.V {
			return nil, fmt.Errorf("arbitrary: self-loop at index %d", i)
		}
		if seen[e.Norm()] {
			return nil, fmt.Errorf("arbitrary: duplicate edge %v at index %d", e.Norm(), i)
		}
		seen[e.Norm()] = true
	}
	return edges, nil
}

// FuzzReadEdges checks the arbstream decoder that ReadArbitraryStream and
// cyclecount read from disk: it never panics, it accepts exactly what the
// map-based model accepts (so an id outside [0, graph.MaxV], a self-loop or
// a duplicate edge in either orientation is an error) with the model's
// error text, it keeps the file's edge order, and every accepted stream
// round-trips through its text form.
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
	f.Add("1\u00a02\n")
	f.Add("1 1\n2 x\n")
	f.Add("9223372036854775808 1\n")
	f.Add("0 1\n\xff 2\n")
	f.Fuzz(func(t *testing.T, in string) {
		want, wantErr := modelEdges(in)
		s, err := ReadEdges(strings.NewReader(in))
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("ReadEdges err = %v, model %v", err, wantErr)
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
