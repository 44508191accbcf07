package stream

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"

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

// Tokenizer reads line-oriented text of whitespace-separated fields, the
// form of every text input here: text streams (ReadText), edge lists
// (ReadEdgeList) and arbitrary-order edge files. Next skips blank lines and
// lines whose first field starts with '#', and a line splits into fields
// exactly as strings.Fields splits it. A plain ASCII line splits in place,
// so reading allocates nothing per line; a line with any other byte takes
// bytes.Fields, which gives the same fields.
type Tokenizer struct {
	sc     *bufio.Scanner
	line   int
	fields [][]byte // the current line's fields, slices of sc.Bytes()
}

// NewTokenizer returns a Tokenizer over r that rejects lines longer than
// maxLine bytes with bufio.ErrTooLong.
func NewTokenizer(r io.Reader, maxLine int) *Tokenizer {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), maxLine)
	return &Tokenizer{sc: sc}
}

// Next advances to the next line that holds fields and is not a comment.
// It returns false at the end of the input or on a read error; see Err.
func (t *Tokenizer) Next() bool {
	for t.sc.Scan() {
		t.line++
		t.split(t.sc.Bytes())
		if len(t.fields) > 0 && t.fields[0][0] != '#' {
			return true
		}
	}
	return false
}

// asciiSpace marks the ASCII bytes that strings.Fields splits at.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// split sets t.fields to line's fields: in place for a plain ASCII line,
// and by bytes.Fields, which splits at Unicode spaces as strings.Fields
// does, for a line with any other byte.
func (t *Tokenizer) split(line []byte) {
	t.fields = t.fields[:0]
	start := -1
	for i, c := range line {
		switch {
		case c >= utf8.RuneSelf:
			t.fields = append(t.fields[:0], bytes.Fields(line)...)
			return
		case asciiSpace[c]:
			if start >= 0 {
				t.fields = append(t.fields, line[start:i])
				start = -1
			}
		case start < 0:
			start = i
		}
	}
	if start >= 0 {
		t.fields = append(t.fields, line[start:])
	}
}

// Line returns the 1-based number of the current line, counting every line
// read, skipped ones included.
func (t *Tokenizer) Line() int { return t.line }

// NumFields returns the number of fields on the current line.
func (t *Tokenizer) NumFields() int { return len(t.fields) }

// Int parses field i with strconv.ParseInt(field, 10, 64). strconv copies
// its input into any error it returns, so the conversion to string does
// not escape and, for a field of up to 32 bytes, does not allocate.
func (t *Tokenizer) Int(i int) (int64, error) {
	return strconv.ParseInt(string(t.fields[i]), 10, 64)
}

// Text returns the current line with surrounding space trimmed, as
// strings.TrimSpace trims it.
func (t *Tokenizer) Text() string { return string(bytes.TrimSpace(t.sc.Bytes())) }

// Err returns the first read error, or nil at a clean end of input.
func (t *Tokenizer) Err() error { return t.sc.Err() }

// ReadText parses a text stream written by WriteText (or by hand). Blank
// lines and lines starting with '#' are skipped. The result is validated
// against the adjacency-list promise.
func ReadText(r io.Reader) (*Stream, error) {
	t := NewTokenizer(r, 1<<24)
	var items []Item
	for t.Next() {
		if t.NumFields() != 2 {
			return nil, fmt.Errorf("stream: line %d: want 2 fields, got %d", t.Line(), t.NumFields())
		}
		o, err := t.Int(0)
		if err != nil {
			return nil, fmt.Errorf("stream: line %d: owner: %w", t.Line(), err)
		}
		n, err := t.Int(1)
		if err != nil {
			return nil, fmt.Errorf("stream: line %d: neighbor: %w", t.Line(), err)
		}
		items = append(items, Item{Owner: graph.V(o), Nbr: graph.V(n)})
	}
	if err := t.Err(); err != nil {
		return nil, fmt.Errorf("stream: read: %w", err)
	}
	return FromItems(items)
}

// ReadEdgeList parses a plain undirected edge list ("u v" per line, '#'
// comments allowed, fields after the second ignored) into a graph,
// ignoring duplicate edges and self-loops. Vertex ids outside
// [0, graph.MaxV] are an error naming the line.
func ReadEdgeList(r io.Reader) (*graph.Graph, error) {
	t := NewTokenizer(r, 1<<24)
	b := graph.NewBuilder()
	for t.Next() {
		if t.NumFields() < 2 {
			return nil, fmt.Errorf("stream: line %d: want at least 2 fields", t.Line())
		}
		u, err := t.Int(0)
		if err != nil {
			return nil, fmt.Errorf("stream: line %d: %w", t.Line(), err)
		}
		v, err := t.Int(1)
		if err != nil {
			return nil, fmt.Errorf("stream: line %d: %w", t.Line(), err)
		}
		if !graph.ValidID(graph.V(u)) || !graph.ValidID(graph.V(v)) {
			return nil, fmt.Errorf("stream: line %d: vertex id outside [0, %d]", t.Line(), graph.MaxV)
		}
		b.AddIfAbsent(graph.V(u), graph.V(v))
	}
	if err := t.Err(); err != nil {
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
