package stream

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"adjstream/internal/graph"
)

// The item builder: the row form (16 bytes per item) that the stream
// constructors laid out before buildChunks copied it into chunks. The
// constructors now write the chunk columns straight from the graph's rows;
// these are the reference they are checked against, with the same rng
// seeds and calls.

// graphItems lays out g's lists in the given arrival order with sorted
// neighbors, validating the list-order contract of FromGraph.
func graphItems(g *graph.Graph, listOrder []graph.V) (items []Item, lists int, err error) {
	vs := g.Vertices()
	off, nbrs := g.Rows()
	seen := make([]bool, len(vs))
	items = make([]Item, 0, 2*g.M())
	for _, v := range listOrder {
		i, ok := slices.BinarySearch(vs, v)
		if !ok {
			return nil, 0, fmt.Errorf("stream: vertex %d not in graph", v)
		}
		if seen[i] {
			return nil, 0, fmt.Errorf("stream: vertex %d repeated in list order", v)
		}
		seen[i] = true
		if off[i] == off[i+1] {
			continue
		}
		lists++
		for _, u := range nbrs[off[i]:off[i+1]] {
			items = append(items, Item{Owner: v, Nbr: u})
		}
	}
	for i, v := range vs {
		if off[i] < off[i+1] && !seen[i] {
			return nil, 0, fmt.Errorf("stream: vertex %d missing from list order", v)
		}
	}
	return items, lists, nil
}

// shuffleWithinLists shuffles each list of items with rng, lists in order.
func shuffleWithinLists(items []Item, rng *rand.Rand) {
	i := 0
	for i < len(items) {
		j := i
		for j < len(items) && items[j].Owner == items[i].Owner {
			j++
		}
		seg := items[i:j]
		rng.Shuffle(len(seg), func(a, b int) { seg[a], seg[b] = seg[b], seg[a] })
		i = j
	}
}

func itemFromGraph(g *graph.Graph, listOrder []graph.V) (*Stream, error) {
	items, lists, err := graphItems(g, listOrder)
	if err != nil {
		return nil, err
	}
	return newStream(items, lists, g.M()), nil
}

func itemSortedDesc(g *graph.Graph) *Stream {
	items, lists, err := graphItems(g, g.Vertices())
	if err != nil {
		panic(err)
	}
	i := 0
	for i < len(items) {
		j := i
		for j < len(items) && items[j].Owner == items[i].Owner {
			j++
		}
		slices.Reverse(items[i:j])
		i = j
	}
	return newStream(items, lists, g.M())
}

func itemRandom(g *graph.Graph, seed uint64) *Stream {
	rng := rand.New(rand.NewPCG(seed, seed^0xda3e39cb94b95bdb))
	order := slices.Clone(g.Vertices())
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	items, lists, err := graphItems(g, order)
	if err != nil {
		panic(err)
	}
	shuffleWithinLists(items, rng)
	return newStream(items, lists, g.M())
}

func itemWithOrder(g *graph.Graph, listOrder []graph.V, seed uint64) (*Stream, error) {
	items, lists, err := graphItems(g, listOrder)
	if err != nil {
		return nil, err
	}
	shuffleWithinLists(items, rand.New(rand.NewPCG(seed, seed^0xa0761d6478bd642f)))
	return newStream(items, lists, g.M()), nil
}

// rowLayoutGraphs covers the empty graph (built and zero-value), isolated
// vertices, non-dense ids, ids at graph.MaxV, lists spanning and starting
// on chunk boundaries, and a graph out of Delta.Apply.
func rowLayoutGraphs(t *testing.T) map[string]*graph.Graph {
	withIsolated := graph.NewBuilder()
	for _, v := range []graph.V{0, 7, 40, graph.MaxV} {
		withIsolated.AddVertex(v)
	}
	for _, e := range []graph.Edge{{U: 3, V: 9}, {U: 9, V: 1 << 31}, {U: 3, V: graph.MaxV - 1}} {
		_ = withIsolated.Add(e.U, e.V)
	}
	star := graph.NewBuilder() // the hub's list fills the second chunk: no run there
	for v := graph.V(1); v <= 2500; v++ {
		_ = star.Add(0, v*3)
	}
	aligned := graph.NewBuilder() // 3072 one-item lists: every chunk starts a list
	for v := graph.V(0); v < 1536; v++ {
		_ = aligned.Add(2*v, 2*v+1)
	}
	d := graph.NewDelta(randomGraph(120, 0.1, 9))
	for _, e := range []graph.Edge{{U: 0, V: 500}, {U: graph.MaxV, V: 3}, {U: 600, V: 601}} {
		if err := d.Add(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	return map[string]*graph.Graph{
		"empty":      graph.NewBuilder().Graph(),
		"zero-value": {},
		"isolated-only": func() *graph.Graph {
			b := graph.NewBuilder()
			b.AddVertex(5)
			b.AddVertex(graph.MaxV)
			return b.Graph()
		}(),
		"with-isolated": withIsolated.Graph(),
		"maxv-edge":     graph.MustFromEdges([]graph.Edge{{U: graph.MaxV, V: graph.MaxV - 1}, {U: 0, V: graph.MaxV}}),
		"star":          star.Graph(),
		"aligned":       aligned.Graph(),
		"dense-random":  randomGraph(300, 0.05, 4),
		"applied":       d.Apply(),
	}
}

// sameStream fails t unless got and want agree item for item and chunk for
// chunk (nil Runs included), with the same Len, M, Lists, Items and
// ListOrder.
func sameStream(t *testing.T, got, want *Stream) {
	t.Helper()
	if got.Len() != want.Len() || got.M() != want.M() || got.Lists() != want.Lists() {
		t.Fatalf("Len/M/Lists = %d/%d/%d, want %d/%d/%d",
			got.Len(), got.M(), got.Lists(), want.Len(), want.M(), want.Lists())
	}
	if !reflect.DeepEqual(got.Chunks(), want.Chunks()) {
		t.Fatalf("chunks differ:\n got %v\nwant %v", got.Chunks(), want.Chunks())
	}
	if !reflect.DeepEqual(got.Items(), want.Items()) {
		t.Fatal("Items differ")
	}
	if !reflect.DeepEqual(got.ListOrder(), want.ListOrder()) {
		t.Fatalf("ListOrder = %v, want %v", got.ListOrder(), want.ListOrder())
	}
}

// TestOrderedStreamsMatchItemBuilder checks FromGraph, WithOrder, Random and
// SortedDesc, which write their chunk columns straight from the graph's
// rows, against the item builder: chunk for chunk under several seeds (so
// the rng draws the same numbers in the same order), over list orders that
// list or skip the isolated vertices, and with the same error for a list
// order that names a vertex outside the graph, repeats one or misses one.
func TestOrderedStreamsMatchItemBuilder(t *testing.T) {
	for name, g := range rowLayoutGraphs(t) {
		t.Run(name, func(t *testing.T) {
			sameStream(t, SortedDesc(g), itemSortedDesc(g))
			all := slices.Clone(g.Vertices())
			slices.Reverse(all)
			var busy []graph.V // the vertices with a list, in a rotated order
			for _, v := range g.Vertices() {
				if g.Degree(v) > 0 {
					busy = append(busy, v)
				}
			}
			if len(busy) > 0 {
				busy = append(busy[len(busy)/3:], busy[:len(busy)/3]...)
			}
			for _, order := range [][]graph.V{all, busy} {
				got, err := FromGraph(g, order)
				if err != nil {
					t.Fatal(err)
				}
				want, err := itemFromGraph(g, order)
				if err != nil {
					t.Fatal(err)
				}
				sameStream(t, got, want)
				for seed := uint64(0); seed < 4; seed++ {
					got, err := WithOrder(g, order, seed)
					if err != nil {
						t.Fatal(err)
					}
					want, err := itemWithOrder(g, order, seed)
					if err != nil {
						t.Fatal(err)
					}
					sameStream(t, got, want)
				}
			}
			for seed := uint64(0); seed < 4; seed++ {
				sameStream(t, Random(g, seed), itemRandom(g, seed))
			}
			if len(busy) == 0 {
				return
			}
			outside := graph.V(1<<31 + 12345)
			for _, bad := range [][]graph.V{
				append(slices.Clone(busy), outside),
				append(slices.Clone(busy), busy[0]),
				busy[1:],
			} {
				_, err := FromGraph(g, bad)
				_, want := itemFromGraph(g, bad)
				_, errW := WithOrder(g, bad, 1)
				if err == nil || want == nil || err.Error() != want.Error() || errW == nil || errW.Error() != want.Error() {
					t.Fatalf("list order %v: FromGraph err %v, WithOrder err %v, want %v", bad, err, errW, want)
				}
			}
		})
	}
}
