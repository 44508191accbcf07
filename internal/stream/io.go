package stream

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"adjstream/internal/graph"
)

// WriteText serializes the stream as one "owner neighbor" pair per line.
func WriteText(w io.Writer, s *Stream) error {
	bw := bufio.NewWriter(w)
	for _, it := range s.Items() {
		if _, err := fmt.Fprintf(bw, "%d %d\n", it.Owner, it.Nbr); err != nil {
			return fmt.Errorf("stream: write: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("stream: write: %w", err)
	}
	return nil
}

// ReadText parses a text stream written by WriteText (or by hand). Blank
// lines and lines starting with '#' are skipped. The result is validated
// against the adjacency-list promise.
func ReadText(r io.Reader) (*Stream, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var items []Item
	line := 0
	for sc.Scan() {
		line++
		txt := strings.TrimSpace(sc.Text())
		if txt == "" || strings.HasPrefix(txt, "#") {
			continue
		}
		fields := strings.Fields(txt)
		if len(fields) != 2 {
			return nil, fmt.Errorf("stream: line %d: want 2 fields, got %d", line, len(fields))
		}
		o, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("stream: line %d: owner: %w", line, err)
		}
		n, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("stream: line %d: neighbor: %w", line, err)
		}
		items = append(items, Item{Owner: graph.V(o), Nbr: graph.V(n)})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("stream: read: %w", err)
	}
	return FromItems(items)
}

// ReadEdgeList parses a plain undirected edge list ("u v" per line, '#'
// comments allowed) into a graph, ignoring duplicate edges and self-loops.
// Vertex ids outside [0, graph.MaxV] are an error naming the line.
func ReadEdgeList(r io.Reader) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	b := graph.NewBuilder()
	line := 0
	for sc.Scan() {
		line++
		txt := strings.TrimSpace(sc.Text())
		if txt == "" || strings.HasPrefix(txt, "#") {
			continue
		}
		fields := strings.Fields(txt)
		if len(fields) < 2 {
			return nil, fmt.Errorf("stream: line %d: want at least 2 fields", line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("stream: line %d: %w", line, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("stream: line %d: %w", line, err)
		}
		if !validID(graph.V(u)) || !validID(graph.V(v)) {
			return nil, fmt.Errorf("stream: line %d: vertex id outside [0, %d]", line, graph.MaxV)
		}
		b.AddIfAbsent(graph.V(u), graph.V(v))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("stream: read: %w", err)
	}
	return b.Graph(), nil
}

// WriteEdgeList writes g's edges one per line in canonical orientation.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.V); err != nil {
			return fmt.Errorf("stream: write: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("stream: write: %w", err)
	}
	return nil
}
