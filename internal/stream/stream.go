package stream

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"

	"adjstream/internal/flat"
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
// each endpoint's list. Two flat.Tables hold what it has seen: the owners
// whose lists have opened, and per edge (packed by edgeKey once its ids
// are known to be in range) a mask of the orientations met so far.
func Validate(items []Item) error {
	var owners, edges flat.Table
	var cur graph.V
	both := 0 // edges met in both orientations
	for i, it := range items {
		if !graph.ValidID(it.Owner) || !graph.ValidID(it.Nbr) {
			return fmt.Errorf("stream: item %d (%d,%d) has a vertex id outside [0, %d]", i, it.Owner, it.Nbr, graph.MaxV)
		}
		if it.Owner == it.Nbr {
			return fmt.Errorf("stream: item %d is a self-loop at %d", i, it.Owner)
		}
		if i == 0 || it.Owner != cur {
			n := owners.Len()
			owners.Put(uint64(it.Owner), 0)
			if owners.Len() == n {
				return fmt.Errorf("stream: adjacency list of %d is not contiguous (reopened at item %d)", it.Owner, i)
			}
			cur = it.Owner
		}
		key, bit := edgeKey(it)
		mask, _ := edges.Get(key)
		if mask&bit != 0 {
			return fmt.Errorf("stream: duplicate item (%d,%d) at index %d", it.Owner, it.Nbr, i)
		}
		edges.Put(key, mask|bit)
		if mask != 0 {
			both++
		}
	}
	if 2*both != len(items) {
		return firstMiscounted(items, &edges)
	}
	return nil
}

// edgeKey packs the edge of it into one word, smaller endpoint high, and
// returns the orientation bit of it: 1 when its owner is the smaller
// endpoint, 2 when it is the larger.
func edgeKey(it Item) (key uint64, bit int32) {
	if it.Owner < it.Nbr {
		return uint64(it.Owner)<<32 | uint64(it.Nbr), 1
	}
	return uint64(it.Nbr)<<32 | uint64(it.Owner), 2
}

// firstMiscounted reports the first edge in stream order met in one
// orientation only, so the error names the same edge whatever the table's
// slot order. Duplicates were refused before, so such an edge appeared
// exactly once.
func firstMiscounted(items []Item, edges *flat.Table) error {
	for _, it := range items {
		key, _ := edgeKey(it)
		if mask, _ := edges.Get(key); mask != 3 {
			return fmt.Errorf("stream: edge %v appears 1 times, want 2", graph.Edge{U: it.Owner, V: it.Nbr}.Norm())
		}
	}
	return nil
}

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

// rowOrder maps listOrder to row indices of g, validating the list-order
// contract of FromGraph. Each listed vertex is found among g's rows once,
// by binary search.
func rowOrder(g *graph.Graph, listOrder []graph.V) ([]int32, error) {
	vs := g.Vertices()
	off, _ := g.Rows()
	seen := make([]bool, len(vs))
	order := make([]int32, len(listOrder))
	for k, v := range listOrder {
		i, ok := slices.BinarySearch(vs, v)
		if !ok {
			return nil, fmt.Errorf("stream: vertex %d not in graph", v)
		}
		if seen[i] {
			return nil, fmt.Errorf("stream: vertex %d repeated in list order", v)
		}
		seen[i] = true
		order[k] = int32(i)
	}
	for i, v := range vs {
		if off[i] < off[i+1] && !seen[i] {
			return nil, fmt.Errorf("stream: vertex %d missing from list order", v)
		}
	}
	return order, nil
}

// fromRows returns the stream of g's lists in the arrival order given by
// order (row indices into g.Vertices(), each non-empty row once), each
// list's neighbours sorted and then, if permute is not nil, reordered in
// place by permute, list by list in arrival order. The chunk columns and
// runs are written straight from g's rows into one backing array per
// column, as Sorted writes them; the row form is decoded only if Items()
// asks for it.
func fromRows(g *graph.Graph, order []int32, permute func(nbrs []uint32)) *Stream {
	vs := g.Vertices()
	off, nbrs := g.Rows()
	n := len(nbrs)
	owners, cols := make([]uint32, n), make([]uint32, n)
	chunks := make([]Chunk, (n+DefaultChunkItems-1)/DefaultChunkItems)
	for c := range chunks {
		lo, hi := c*DefaultChunkItems, min((c+1)*DefaultChunkItems, n)
		chunks[c] = Chunk{Owners: owners[lo:hi:hi], Nbrs: cols[lo:hi:hi]}
	}
	lists := 0
	for i := range vs {
		if off[i] < off[i+1] {
			lists++
		}
	}
	// Each list adds its start to the runs of the chunk it starts in. runs
	// is allocated at its final size, so each chunk's Runs stays a window
	// of it: the chunk's latest runs, which are the last ones appended.
	runs := make([]int32, 0, lists)
	p := 0 // next item
	for _, i := range order {
		lo, hi := off[i], off[i+1]
		if lo == hi {
			continue
		}
		runs = append(runs, int32(p%DefaultChunkItems))
		c := &chunks[p/DefaultChunkItems]
		c.Runs = runs[len(runs)-len(c.Runs)-1 : len(runs) : len(runs)]
		list := cols[p : p+int(hi-lo)]
		for j, u := range nbrs[lo:hi] {
			owners[p+j] = uint32(vs[i])
			list[j] = uint32(u)
		}
		if permute != nil {
			permute(list)
		}
		p += len(list)
	}
	return &Stream{chunks: chunks, n: n, lists: lists, m: g.M()}
}

// FromGraph builds a stream from g with the given adjacency-list arrival
// order. listOrder must contain every vertex of g with degree ≥ 1 exactly
// once (isolated vertices are permitted and skipped). Within each list,
// neighbors appear in sorted order; use the order helpers for random orders.
func FromGraph(g *graph.Graph, listOrder []graph.V) (*Stream, error) {
	order, err := rowOrder(g, listOrder)
	if err != nil {
		return nil, err
	}
	return fromRows(g, order, nil), nil
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
	return fromRows(g, identity(len(g.Vertices())), slices.Reverse[[]uint32])
}

// Random returns a stream with a uniformly random list arrival order and
// uniformly random order within each list, driven by seed.
func Random(g *graph.Graph, seed uint64) *Stream {
	rng := rand.New(rand.NewPCG(seed, seed^0xda3e39cb94b95bdb))
	order := identity(len(g.Vertices()))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return fromRows(g, order, shuffler(rng))
}

// WithOrder returns a stream with the given list order and a seeded shuffle
// within each list.
func WithOrder(g *graph.Graph, listOrder []graph.V, seed uint64) (*Stream, error) {
	order, err := rowOrder(g, listOrder)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, seed^0xa0761d6478bd642f))
	return fromRows(g, order, shuffler(rng)), nil
}

// identity returns the row order 0, 1, …, n−1.
func identity(n int) []int32 {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	return order
}

// shuffler returns a permute for fromRows that shuffles each list with rng.
func shuffler(rng *rand.Rand) func(nbrs []uint32) {
	return func(nbrs []uint32) {
		rng.Shuffle(len(nbrs), func(a, b int) { nbrs[a], nbrs[b] = nbrs[b], nbrs[a] })
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
