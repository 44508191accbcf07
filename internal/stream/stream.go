package stream

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"

	"adjstream/internal/graph"
)

// Item is one stream element: Nbr appears in Owner's adjacency list.
type Item struct {
	Owner, Nbr graph.V
}

// Stream is a finite adjacency-list stream. Construct with FromGraph,
// FromItems, the order helpers, or OpenMapped; a Stream is immutable and
// safe for concurrent replay.
//
// The canonical storage is the columnar chunked form (see Chunk): flat
// uint32 owner/neighbor columns plus list-boundary run offsets, which is
// what the drivers iterate and what the binary file format maps. Every
// constructor rejects vertex ids outside [0, graph.MaxV], so every stream
// has chunks. The row form is available through the Items() adapter.
type Stream struct {
	chunks []Chunk
	n      int   // total number of items
	lists  int   // number of adjacency lists
	m      int64 // number of distinct edges (= n/2)

	// items is the row-form adapter. In-memory constructors retain the
	// slice they were built from; mapped streams materialize it lazily on
	// first Items() call.
	items     []Item
	itemsOnce sync.Once
}

// newStream wraps already-validated items, building the columnar form.
func newStream(items []Item, lists int, m int64) *Stream {
	return &Stream{
		chunks: buildChunks(items, DefaultChunkItems),
		n:      len(items),
		lists:  lists,
		m:      m,
		items:  items,
	}
}

// Items returns the stream in row form. The slice is shared with the
// stream and must not be modified. For mapped streams the rows are decoded
// from the columns once, on first use; the chunked drivers never call this.
func (s *Stream) Items() []Item {
	s.itemsOnce.Do(func() {
		if s.items == nil {
			s.items = decodeChunks(s.chunks, s.n)
		}
	})
	return s.items
}

// Chunks returns the columnar form. The chunks and their columns are shared
// and must not be modified.
func (s *Stream) Chunks() []Chunk { return s.chunks }

// Len returns the number of items (2m).
func (s *Stream) Len() int { return s.n }

// M returns the number of distinct edges.
func (s *Stream) M() int64 { return s.m }

// Lists returns the number of adjacency lists (vertices with degree ≥ 1,
// plus explicitly included isolated vertices never appear: a vertex with an
// empty list contributes no items).
func (s *Stream) Lists() int { return s.lists }

// ListOrder returns the owners in arrival order.
func (s *Stream) ListOrder() []graph.V {
	out := make([]graph.V, 0, s.lists)
	for i := range s.chunks {
		c := &s.chunks[i]
		for _, r := range c.Runs {
			out = append(out, graph.V(c.Owners[r]))
		}
	}
	return out
}

// Validate checks the adjacency-list promise on items: every vertex id is
// in [0, graph.MaxV], owners are contiguous, no list repeats, no
// self-loops, no duplicate items, and every edge appears exactly once in
// each endpoint's list.
func Validate(items []Item) error {
	seenList := make(map[graph.V]bool)
	count := make(map[graph.Edge]int)
	seenItem := make(map[Item]bool, len(items))
	var cur graph.V
	inList := false
	for i, it := range items {
		if !validID(it.Owner) || !validID(it.Nbr) {
			return fmt.Errorf("stream: item %d (%d,%d) has a vertex id outside [0, %d]", i, it.Owner, it.Nbr, graph.MaxV)
		}
		if it.Owner == it.Nbr {
			return fmt.Errorf("stream: item %d is a self-loop at %d", i, it.Owner)
		}
		if !inList || it.Owner != cur {
			if seenList[it.Owner] {
				return fmt.Errorf("stream: adjacency list of %d is not contiguous (reopened at item %d)", it.Owner, i)
			}
			seenList[it.Owner] = true
			cur = it.Owner
			inList = true
		}
		if seenItem[it] {
			return fmt.Errorf("stream: duplicate item (%d,%d) at index %d", it.Owner, it.Nbr, i)
		}
		seenItem[it] = true
		count[graph.Edge{U: it.Owner, V: it.Nbr}.Norm()]++
	}
	for e, c := range count {
		if c != 2 {
			return fmt.Errorf("stream: edge %v appears %d times, want 2", e, c)
		}
	}
	return nil
}

// validID reports whether v fits the stream's uint32 columns.
func validID(v graph.V) bool { return v >= 0 && v <= graph.MaxV }

// countLists returns the number of maximal same-owner runs in items.
func countLists(items []Item) int {
	lists := 0
	var cur graph.V
	first := true
	for _, it := range items {
		if first || it.Owner != cur {
			lists++
			cur = it.Owner
			first = false
		}
	}
	return lists
}

// FromItems wraps items into a Stream after validating the model promise.
func FromItems(items []Item) (*Stream, error) {
	if err := Validate(items); err != nil {
		return nil, err
	}
	return newStream(items, countLists(items), int64(len(items))/2), nil
}

// graphItems lays out g's lists in the given arrival order with sorted
// neighbors, validating the list-order contract of FromGraph. Each listed
// vertex is found among g's rows once, by binary search.
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

// FromGraph builds a stream from g with the given adjacency-list arrival
// order. listOrder must contain every vertex of g with degree ≥ 1 exactly
// once (isolated vertices are permitted and skipped). Within each list,
// neighbors appear in sorted order; use the order helpers for random orders.
func FromGraph(g *graph.Graph, listOrder []graph.V) (*Stream, error) {
	items, lists, err := graphItems(g, listOrder)
	if err != nil {
		return nil, err
	}
	return newStream(items, lists, g.M()), nil
}

// Sorted returns the stream with lists in ascending vertex order and sorted
// neighbors — the canonical deterministic order. The graph's rows already
// are that stream, so the chunk columns and runs are written straight from
// them, into one backing array per column; the row form is decoded only if
// Items() asks for it.
func Sorted(g *graph.Graph) *Stream {
	vs := g.Vertices()
	off, nbrs := g.Rows()
	n := len(nbrs)
	owners, cols := make([]uint32, n), make([]uint32, n)
	for p, u := range nbrs {
		cols[p] = uint32(u)
	}
	lists := 0
	for i, v := range vs {
		if off[i] < off[i+1] {
			lists++
		}
		for p := off[i]; p < off[i+1]; p++ {
			owners[p] = uint32(v)
		}
	}
	runs := make([]int32, 0, lists)
	chunks := make([]Chunk, (n+DefaultChunkItems-1)/DefaultChunkItems)
	i := 0 // next row
	for c := range chunks {
		lo, hi := c*DefaultChunkItems, min((c+1)*DefaultChunkItems, n)
		from := len(runs)
		for ; i < len(vs) && off[i] < int64(hi); i++ {
			if off[i] < off[i+1] {
				runs = append(runs, int32(off[i]-int64(lo)))
			}
		}
		chunks[c] = Chunk{Owners: owners[lo:hi:hi], Nbrs: cols[lo:hi:hi]}
		if len(runs) > from {
			chunks[c].Runs = runs[from:len(runs):len(runs)]
		}
	}
	return &Stream{chunks: chunks, n: n, lists: lists, m: g.M()}
}

// SortedDesc returns the stream with lists in ascending vertex order but
// neighbors within each list in descending order. Together with Sorted it
// brackets the within-list order sensitivity of order-dependent estimators
// (experiment M2): ascending neighbor order tends to present an edge's
// second appearance before wedge-forming items, descending after.
func SortedDesc(g *graph.Graph) *Stream {
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
		for a, b := i, j-1; a < b; a, b = a+1, b-1 {
			items[a], items[b] = items[b], items[a]
		}
		i = j
	}
	return newStream(items, lists, g.M())
}

// Random returns a stream with a uniformly random list arrival order and
// uniformly random order within each list, driven by seed.
func Random(g *graph.Graph, seed uint64) *Stream {
	rng := rand.New(rand.NewPCG(seed, seed^0xda3e39cb94b95bdb))
	order := make([]graph.V, len(g.Vertices()))
	copy(order, g.Vertices())
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	items, lists, err := graphItems(g, order)
	if err != nil {
		panic(err)
	}
	shuffleWithinLists(items, rng)
	return newStream(items, lists, g.M())
}

// WithOrder returns a stream with the given list order and a seeded shuffle
// within each list.
func WithOrder(g *graph.Graph, listOrder []graph.V, seed uint64) (*Stream, error) {
	items, lists, err := graphItems(g, listOrder)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, seed^0xa0761d6478bd642f))
	shuffleWithinLists(items, rng)
	return newStream(items, lists, g.M()), nil
}

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

// Graph reconstructs the underlying graph from the stream. Useful for
// cross-checking streams read from files.
func (s *Stream) Graph() (*graph.Graph, error) {
	b := graph.NewBuilder()
	for _, it := range s.Items() {
		if it.Owner < it.Nbr {
			if err := b.Add(it.Owner, it.Nbr); err != nil {
				return nil, fmt.Errorf("stream: %w", err)
			}
		}
	}
	return b.Graph(), nil
}

// itemsIn returns the number of items in the first n chunks.
func (s *Stream) itemsIn(n int) int64 {
	if n == len(s.chunks) {
		return int64(s.n)
	}
	var items int64
	for _, c := range s.chunks[:n] {
		items += int64(len(c.Owners))
	}
	return items
}
