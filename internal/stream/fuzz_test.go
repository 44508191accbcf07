package stream

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"

	"adjstream/internal/graph"
)

// refReadText is ReadText as it read lines before the shared tokenizer:
// strings.TrimSpace, strings.Fields and strconv.ParseInt on each line's
// text. The fuzz targets below hold the decoder to it, error text included.
func refReadText(r io.Reader) (*Stream, error) {
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

// refReadEdgeList is ReadEdgeList as it read lines before the shared
// tokenizer; the edges go to a graph.Builder, whose own oracle is
// FuzzBuilderMatchesMapModel.
func refReadEdgeList(r io.Reader) (*graph.Graph, error) {
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
		if !graph.ValidID(graph.V(u)) || !graph.ValidID(graph.V(v)) {
			return nil, fmt.Errorf("stream: line %d: vertex id outside [0, %d]", line, graph.MaxV)
		}
		b.AddIfAbsent(graph.V(u), graph.V(v))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("stream: read: %w", err)
	}
	return b.Graph(), nil
}

// sameErr reports whether two decode errors agree: both nil, or both
// non-nil with the same text.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// textSeeds are inputs for both text decoders: plain and padded ids,
// comments, signs, leading zeros, overflow, Unicode spaces that
// strings.Fields splits on (a no-break space, U+0085, an ideographic
// space), invalid UTF-8 and field counts off by one.
var textSeeds = []string{
	"1 2\n2 1\n",
	"1 2\n1 3\n2 1\n2 3\n3 1\n3 2\n",
	"# comment\n\n1 2\n2 1\n",
	"  \t1\t2  \r\n2 1",
	"a b\n",
	"1\n",
	"1 2 3\n",
	"9223372036854775807 1\n1 9223372036854775807\n",
	"9223372036854775808 1\n",
	"4294967295 0\n0 4294967295\n4294967296 1\n",
	"-5 7\n",
	"+7 0009\n0009 +7\n",
	"1\u00a02\n2\u00a01\n",
	"1\u00852\n",
	"1\u30002 3\n",
	"\u00a0# not a comment\n",
	"1 2\xff\n",
	"#\xff\n1 2\n2 1\n",
	"1 2\n3 1\n1 3\n2 1\n",
	"1 1\n",
	"1 2\n2 1\n1 2\n",
	"\v1\f2\n",
}

// FuzzReadText holds ReadText to refReadText: the same accept decision,
// the same error text and the same items. Any input it accepts also
// round-trips through WriteText and re-validates.
func FuzzReadText(f *testing.F) {
	for _, s := range textSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ReadText(strings.NewReader(in))
		want, wantErr := refReadText(strings.NewReader(in))
		if !sameErr(err, wantErr) {
			t.Fatalf("ReadText err = %v, reference %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if !slices.Equal(s.Items(), want.Items()) {
			t.Fatalf("items %v, reference %v", s.Items(), want.Items())
		}
		// Accepted input must satisfy the model promise and round-trip.
		if err := Validate(s.Items()); err != nil {
			t.Fatalf("accepted stream fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, s); err != nil {
			t.Fatal(err)
		}
		s2, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if !slices.Equal(s2.Items(), s.Items()) {
			t.Fatalf("round trip changed the items: %v vs %v", s2.Items(), s.Items())
		}
	})
}

// FuzzReadEdgeList holds ReadEdgeList to refReadEdgeList: the same accept
// decision, the same error text and the same graph (vertex names and rows).
// Every accepted graph is also simple.
func FuzzReadEdgeList(f *testing.F) {
	for _, s := range textSeeds {
		f.Add(s)
	}
	f.Add("1 2 0.5\n2 3 w\n")
	f.Add("# c\n\n-5 7\n")
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ReadEdgeList(strings.NewReader(in))
		want, wantErr := refReadEdgeList(strings.NewReader(in))
		if !sameErr(err, wantErr) {
			t.Fatalf("ReadEdgeList err = %v, reference %v", err, wantErr)
		}
		if err != nil {
			return
		}
		off, nbrs := g.Rows()
		wantOff, wantNbrs := want.Rows()
		if !slices.Equal(g.Vertices(), want.Vertices()) || !slices.Equal(off, wantOff) ||
			!slices.Equal(nbrs, wantNbrs) || g.M() != want.M() {
			t.Fatalf("graph %v/%v/%v, reference %v/%v/%v", g.Vertices(), off, nbrs, want.Vertices(), wantOff, wantNbrs)
		}
		var m int64
		for _, v := range g.Vertices() {
			for _, u := range g.Neighbors(v) {
				if u == v {
					t.Fatal("self-loop in parsed graph")
				}
				if !g.HasEdge(u, v) {
					t.Fatal("asymmetric adjacency")
				}
				if v < u {
					m++
				}
			}
		}
		if m != g.M() {
			t.Fatalf("edge count mismatch: %d vs %d", m, g.M())
		}
	})
}
