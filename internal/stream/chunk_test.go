package stream

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"adjstream/internal/graph"
)

func TestBuildChunksBoundaries(t *testing.T) {
	// Three lists of degree 3 over chunkItems = 4: list 2's run crosses the
	// first chunk boundary, so chunk 1 must open without a run at 0.
	items := []Item{
		{1, 2}, {1, 3}, {1, 4},
		{2, 1}, {2, 3}, {2, 4},
		{3, 1}, {3, 2}, {3, 4},
		{4, 1}, {4, 2}, {4, 3},
	}
	chunks := buildChunks(items, 4)
	if len(chunks) != 3 {
		t.Fatalf("got %d chunks, want 3", len(chunks))
	}
	wantRuns := [][]int32{{0, 3}, {2}, {1}}
	for i, c := range chunks {
		if len(c.Owners) != 4 || len(c.Nbrs) != 4 {
			t.Fatalf("chunk %d: columns have %d/%d items, want 4", i, len(c.Owners), len(c.Nbrs))
		}
		if !reflect.DeepEqual(c.Runs, wantRuns[i]) {
			t.Errorf("chunk %d runs = %v, want %v", i, c.Runs, wantRuns[i])
		}
	}
	if got := decodeChunks(chunks, len(items)); !reflect.DeepEqual(got, items) {
		t.Errorf("decodeChunks round trip diverged:\n got %v\nwant %v", got, items)
	}
}

// TestBuildChunksUnchunkable checks that ids outside the uint32 columns
// never reach buildChunks: FromItems rejects them, so every stream has a
// columnar form.
func TestBuildChunksUnchunkable(t *testing.T) {
	for _, items := range [][]Item{
		{{Owner: 1, Nbr: graph.MaxV + 1}, {Owner: graph.MaxV + 1, Nbr: 1}},
		{{Owner: 1, Nbr: -2}, {Owner: -2, Nbr: 1}},
	} {
		if s, err := FromItems(items); err == nil {
			t.Fatalf("FromItems(%v) accepted ids outside [0, %d] (%d chunks)", items, graph.MaxV, len(s.Chunks()))
		}
	}
	// The bound itself is inclusive.
	s, err := FromItems([]Item{{Owner: 0, Nbr: graph.MaxV}, {Owner: graph.MaxV, Nbr: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if c := s.Chunks(); len(c) != 1 || c[0].Nbrs[0] != math.MaxUint32 {
		t.Fatalf("chunks = %+v, want one chunk holding id %d", c, graph.MaxV)
	}
}

// TestOutOfRangeIDsRejected feeds ids just outside [0, graph.MaxV] to every
// stream constructor that reads them from outside the program: item
// slices, text streams, "adj1" binary streams and edge lists. Each must be
// rejected; the edge-list error names the offending line.
func TestOutOfRangeIDsRejected(t *testing.T) {
	for _, bad := range []graph.V{-1, graph.MaxV + 1} {
		items := []Item{{Owner: 1, Nbr: bad}, {Owner: bad, Nbr: 1}}
		if _, err := FromItems(items); err == nil {
			t.Errorf("FromItems accepted id %d", bad)
		}
		text := fmt.Sprintf("1 %d\n%d 1\n", bad, bad)
		if _, err := ReadText(strings.NewReader(text)); err == nil {
			t.Errorf("ReadText accepted id %d", bad)
		}
		var bin bytes.Buffer
		bin.WriteString("adj1")
		bin.Write(binary.AppendUvarint(nil, 2))
		for _, list := range [][2]int64{{1, int64(bad)}, {int64(bad), 1}} {
			bin.Write(binary.AppendVarint(nil, list[0]))
			bin.Write(binary.AppendUvarint(nil, 1))
			bin.Write(binary.AppendVarint(nil, list[1]))
		}
		if _, err := ReadBinary(&bin); err == nil || !strings.Contains(err.Error(), "outside") {
			t.Errorf("ReadBinary with id %d: err = %v, want an id-range error", bad, err)
		}
		edges := fmt.Sprintf("# header\n1 2\n2 %d\n", bad)
		_, err := ReadEdgeList(strings.NewReader(edges))
		if err == nil || !strings.Contains(err.Error(), "line 3") {
			t.Errorf("ReadEdgeList with id %d: err = %v, want an error naming line 3", bad, err)
		}
	}
}

// TestUnchunkableStreamFallsBack drives streams at the edge of the id
// range through both drivers. A stream with an id beyond uint32 would have
// no columnar form to walk, so it is rejected at construction and there is
// no row walk to fall back to; the boundary id graph.MaxV stays on the
// chunk walker, and every copy must see the callback sequence the row form
// implies.
func TestUnchunkableStreamFallsBack(t *testing.T) {
	big := graph.MaxV + 1
	if _, err := FromItems([]Item{{Owner: 1, Nbr: big}, {Owner: big, Nbr: 1}}); err == nil {
		t.Fatalf("FromItems accepted id %d beyond uint32", big)
	}
	s, err := FromItems([]Item{{Owner: 1, Nbr: graph.MaxV}, {Owner: graph.MaxV, Nbr: 1}})
	if err != nil {
		t.Fatal(err)
	}
	want := itemTrace(s.Items(), 2)
	seq := &tracer{passes: 2}
	Run(s, seq)
	if !reflect.DeepEqual(seq.events, want) {
		t.Errorf("sequential trace = %v, want %v", seq.events, want)
	}
	trs, copies := traced(3, 2)
	if _, err := RunBroadcastContext(context.Background(), s, copies); err != nil {
		t.Fatal(err)
	}
	for i, tr := range trs {
		if !reflect.DeepEqual(tr.events, want) {
			t.Errorf("broadcast copy %d trace = %v, want %v", i, tr.events, want)
		}
	}
}

// TestChunkedStreamMultiChunk pins the chunk geometry of a stream larger
// than one chunk and that ListOrder agrees with the row-form scan.
func TestChunkedStreamMultiChunk(t *testing.T) {
	g := randomGraph(80, 0.3, 4)
	s := Random(g, 6)
	if s.Len() <= DefaultChunkItems {
		t.Fatalf("stream has %d items, want > %d", s.Len(), DefaultChunkItems)
	}
	chunks := s.Chunks()
	total, runs := 0, 0
	for _, c := range chunks {
		total += len(c.Owners)
		runs += len(c.Runs)
	}
	if total != s.Len() {
		t.Errorf("chunks hold %d items, stream has %d", total, s.Len())
	}
	if runs != s.Lists() {
		t.Errorf("chunks hold %d runs, stream has %d lists", runs, s.Lists())
	}
	var fromItems []int64
	var cur int64 = -1
	for _, it := range s.Items() {
		if int64(it.Owner) != cur {
			cur = int64(it.Owner)
			fromItems = append(fromItems, cur)
		}
	}
	order := s.ListOrder()
	if len(order) != len(fromItems) {
		t.Fatalf("ListOrder has %d entries, row scan %d", len(order), len(fromItems))
	}
	for i := range order {
		if int64(order[i]) != fromItems[i] {
			t.Fatalf("ListOrder[%d] = %d, row scan %d", i, order[i], fromItems[i])
		}
	}
}
