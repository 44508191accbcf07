package graph

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// mapBuilder is the map-of-maps Builder, kept as the reference that
// FuzzBuilderMatchesMapModel and TestBuilderMatchesMapModelRandom hold
// Builder to. It refuses ids outside [0, MaxV] in every method.
type mapBuilder struct {
	nbr map[V]map[V]struct{}
	m   int64
}

func newMapBuilder() *mapBuilder { return &mapBuilder{nbr: make(map[V]map[V]struct{})} }

func (b *mapBuilder) add(u, v V) error {
	if err := checkV(u); err != nil {
		return err
	}
	if err := checkV(v); err != nil {
		return err
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at vertex %d", u)
	}
	if !b.addIfAbsent(u, v) {
		return fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
	}
	return nil
}

func (b *mapBuilder) addIfAbsent(u, v V) bool {
	if u == v || !ValidID(u) || !ValidID(v) {
		return false
	}
	if _, ok := b.nbr[u][v]; ok {
		return false
	}
	b.addVertex(u)
	b.addVertex(v)
	b.nbr[u][v] = struct{}{}
	b.nbr[v][u] = struct{}{}
	b.m++
	return true
}

func (b *mapBuilder) addVertex(v V) bool {
	if !ValidID(v) {
		return false
	}
	if _, ok := b.nbr[v]; !ok {
		b.nbr[v] = make(map[V]struct{})
	}
	return true
}

// builtGraph is the content of a Graph: names, rows, M and MaxDegree.
type builtGraph struct {
	vs   []V
	off  []int64
	adj  []V
	m    int64
	maxD int
}

func contentOf(g *Graph) builtGraph {
	off, adj := g.Rows()
	return builtGraph{slices.Clone(g.Vertices()), slices.Clone(off), slices.Clone(adj), g.M(), g.MaxDegree()}
}

func (b *mapBuilder) graph() builtGraph {
	var want builtGraph
	for v := range b.nbr {
		want.vs = append(want.vs, v)
	}
	slices.Sort(want.vs)
	want.off = []int64{0}
	for _, v := range want.vs {
		row := len(want.adj)
		for u := range b.nbr[v] {
			want.adj = append(want.adj, u)
		}
		slices.Sort(want.adj[row:])
		want.off = append(want.off, int64(len(want.adj)))
		want.maxD = max(want.maxD, len(want.adj)-row)
	}
	want.m = b.m
	return want
}

func (g builtGraph) equal(h builtGraph) bool {
	return slices.Equal(g.vs, h.vs) && slices.Equal(g.off, h.off) && slices.Equal(g.adj, h.adj) &&
		g.m == h.m && g.maxD == h.maxD
}

// FuzzBuilderMatchesMapModel is the differential oracle for Builder:
// fuzzer bytes decode into a sequence of Add, AddIfAbsent, AddVertex and
// Graph calls on ids drawn from fuzzIDs (so with duplicates, self-loops,
// isolated vertices, ids at MaxV and ids outside [0, MaxV]), continuing
// after each Graph. Every call must answer as mapBuilder does, every Graph
// must hold mapBuilder's names, rows, M and MaxDegree, and no later call
// may change a Graph already returned.
func FuzzBuilderMatchesMapModel(f *testing.F) {
	f.Add([]byte{0, 1, 2, 1, 2, 1, 0, 2, 3, 3, 2, 11, 1, 10, 9, 3, 0, 12, 1, 1, 13, 0, 3})
	f.Add([]byte{2, 6, 1, 5, 4, 1, 4, 3, 1, 3, 2, 1, 2, 1, 1, 1, 0, 3, 1, 0, 5, 0, 6, 7, 3})
	f.Add([]byte{3, 2, 12, 2, 13, 1, 12, 0, 1, 13, 1, 0, 10, 9, 3, 1, 8, 7, 0, 7, 8, 3})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		id := func() V { return fuzzIDs[next()%len(fuzzIDs)] }
		b, ref := NewBuilder(), newMapBuilder()
		type issued struct {
			g    *Graph
			want builtGraph
		}
		var graphs []issued
		for len(data) > 0 {
			switch op := next() % 4; op {
			case 0:
				u, v := id(), id()
				err, want := b.Add(u, v), ref.add(u, v)
				if (err == nil) != (want == nil) || err != nil && err.Error() != want.Error() {
					t.Fatalf("Add(%d,%d) = %v, reference %v", u, v, err, want)
				}
			case 1:
				u, v := id(), id()
				if got, want := b.AddIfAbsent(u, v), ref.addIfAbsent(u, v); got != want {
					t.Fatalf("AddIfAbsent(%d,%d) = %v, reference %v", u, v, got, want)
				}
			case 2:
				v := id()
				if got, want := b.AddVertex(v), ref.addVertex(v); got != want {
					t.Fatalf("AddVertex(%d) = %v, reference %v", v, got, want)
				}
			case 3:
				g := b.Graph()
				want := ref.graph()
				if got := contentOf(g); !got.equal(want) {
					t.Fatalf("Graph() = %+v, reference %+v", got, want)
				}
				graphs = append(graphs, issued{g, want})
			}
			if b.M() != ref.m {
				t.Fatalf("M() = %d, reference %d", b.M(), ref.m)
			}
		}
		for i, is := range graphs {
			if got := contentOf(is.g); !got.equal(is.want) {
				t.Fatalf("graph %d changed after later calls: %+v, was %+v", i, got, is.want)
			}
		}
	})
}

// TestBuilderMatchesMapModelRandom holds Builder to mapBuilder on graphs
// larger than the fuzz pool reaches: thousands of vertices with sparse
// names, edges in random order (so rows arrive unsorted), repeats in both
// orientations, isolated vertices and refused ids.
func TestBuilderMatchesMapModelRandom(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x6275696c64))
		names := make([]V, 3000)
		for i := range names {
			names[i] = V(rng.Uint64N(uint64(MaxV) + 1))
		}
		names = append(names, 0, MaxV, -1, MaxV+1)
		b, ref := NewBuilder(), newMapBuilder()
		for i := 0; i < 12000; i++ {
			u, v := names[rng.IntN(len(names))], names[rng.IntN(len(names))]
			if i%97 == 0 {
				if got, want := b.AddVertex(u), ref.addVertex(u); got != want {
					t.Fatalf("seed %d: AddVertex(%d) = %v, reference %v", seed, u, got, want)
				}
				continue
			}
			if got, want := b.AddIfAbsent(u, v), ref.addIfAbsent(u, v); got != want {
				t.Fatalf("seed %d: AddIfAbsent(%d,%d) = %v, reference %v", seed, u, v, got, want)
			}
		}
		if got, want := contentOf(b.Graph()), ref.graph(); !got.equal(want) {
			t.Fatalf("seed %d: graph differs from the reference (n %d/%d, m %d/%d)", seed, len(got.vs), len(want.vs), got.m, want.m)
		}
	}
}

// TestBuilderRefusesIDsAStreamCannotCarry: every Builder method refuses an
// id outside [0, MaxV] (a stream's uint32 columns would truncate 2³²+1 to
// 1 and −5 to 4294967291), without panicking, since such ids can come from
// a caller's input.
func TestBuilderRefusesIDsAStreamCannotCarry(t *testing.T) {
	b := NewBuilder()
	b.AddIfAbsent(1, 2)
	b.AddIfAbsent(2, 3)
	for _, bad := range []V{1<<32 + 1, -5, MaxV + 1, -1} {
		if b.AddIfAbsent(bad, 3) || b.AddIfAbsent(3, bad) {
			t.Errorf("AddIfAbsent accepted id %d", bad)
		}
		if b.AddVertex(bad) {
			t.Errorf("AddVertex accepted id %d", bad)
		}
	}
	if !b.AddVertex(MaxV) || !b.AddVertex(0) {
		t.Error("AddVertex refused an id inside [0, MaxV]")
	}
	g := b.Graph()
	if !slices.Equal(g.Vertices(), []V{0, 1, 2, 3, MaxV}) || g.M() != 2 {
		t.Errorf("graph holds %v with %d edges, want [0 1 2 3 %d] with 2", g.Vertices(), g.M(), MaxV)
	}
}
