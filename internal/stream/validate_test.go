package stream

import (
	"fmt"
	"slices"
	"testing"

	"adjstream/internal/gen"
	"adjstream/internal/graph"
)

// validateMapModel is Validate as it checked the adjacency-list promise
// with three Go maps: lists seen, items seen and a count per canonical
// edge. FuzzValidateMatchesMapModel holds Validate to it, error text
// included.
func validateMapModel(items []Item) error {
	seenList := make(map[graph.V]bool)
	count := make(map[graph.Edge]int)
	seenItem := make(map[Item]bool, len(items))
	var cur graph.V
	inList := false
	for i, it := range items {
		if !graph.ValidID(it.Owner) || !graph.ValidID(it.Nbr) {
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
	for _, it := range items {
		e := graph.Edge{U: it.Owner, V: it.Nbr}.Norm()
		if c := count[e]; c != 2 {
			return fmt.Errorf("stream: edge %v appears %d times, want 2", e, c)
		}
	}
	return nil
}

// fuzzID reads a byte as a vertex id in 0..7, except for three values
// kept for the ends of the id range: MaxV itself and the ids just outside.
func fuzzID(b byte) graph.V {
	switch b {
	case 0xfd:
		return graph.MaxV
	case 0xfe:
		return -1
	case 0xff:
		return graph.MaxV + 1
	}
	return graph.V(b % 8)
}

// fuzzItems decodes data into items. An even first byte reads the rest as
// (owner, neighbour) byte pairs. An odd first byte h reads the next h>>1
// byte pairs as edges over ids 0..7, takes the graph's sorted stream (a
// valid one), and applies one edit per remaining byte triple (op, k, x) to
// the item at k mod the item count: drop it, repeat it, swap it with the
// next item, or make fuzzID(x) its neighbour. The edits give reopened
// lists, duplicates, self-loops, ids out of range and one-orientation
// edges.
func fuzzItems(data []byte) []Item {
	if len(data) == 0 {
		return nil
	}
	h, data := data[0], data[1:]
	var items []Item
	if h%2 == 0 {
		for i := 0; i+1 < len(data); i += 2 {
			items = append(items, Item{Owner: fuzzID(data[i]), Nbr: fuzzID(data[i+1])})
		}
		return items
	}
	edges := min(2*int(h>>1), len(data)&^1)
	b := graph.NewBuilder()
	for i := 0; i < edges; i += 2 {
		b.AddIfAbsent(graph.V(data[i]%8), graph.V(data[i+1]%8))
	}
	items = slices.Clone(Sorted(b.Graph()).Items())
	for i := edges; i+2 < len(data) && len(items) > 0; i += 3 {
		op, k := data[i], int(data[i+1])%len(items)
		switch op % 4 {
		case 0:
			items = slices.Delete(items, k, k+1)
		case 1:
			items = slices.Insert(items, k, items[k])
		case 2:
			if k+1 < len(items) {
				items[k], items[k+1] = items[k+1], items[k]
			}
		case 3:
			items[k].Nbr = fuzzID(data[i+2])
		}
	}
	return items
}

// FuzzValidateMatchesMapModel holds Validate to validateMapModel: the same
// accept decision and the same error text on every decoded item sequence.
func FuzzValidateMatchesMapModel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 2, 1})                      // one edge, both lists
	f.Add([]byte{0, 1, 2, 3, 1, 1, 3, 2, 1})          // list of 1 reopened
	f.Add([]byte{0, 1, 2, 1, 2, 2, 1})                // duplicate item
	f.Add([]byte{0, 3, 3})                            // self-loop
	f.Add([]byte{0, 1, 0xff, 0xff, 1})                // id above MaxV
	f.Add([]byte{0, 0xfe, 1})                         // negative id
	f.Add([]byte{0, 0xfd, 1, 1, 0xfd})                // MaxV is in range
	f.Add([]byte{0, 1, 4, 1, 2, 1, 3})                // three one-orientation edges
	f.Add([]byte{7, 0, 1, 1, 2, 2, 0})                // a valid triangle stream
	f.Add([]byte{9, 0, 1, 0, 2, 0, 3, 1, 2, 0, 3, 0}) // four edges, one item dropped
	f.Add([]byte{5, 0, 1, 2, 3, 1, 1, 0, 2, 2, 0})    // a repeat, then a swap
	f.Add([]byte{3, 4, 5, 3, 0, 0xfd})                // a neighbour moved to MaxV
	f.Add([]byte{3, 4, 5, 3, 0, 4})                   // a neighbour moved onto its owner
	f.Fuzz(func(t *testing.T, data []byte) {
		items := fuzzItems(data)
		if err, want := Validate(items), validateMapModel(items); !sameErr(err, want) {
			t.Fatalf("Validate(%v) = %v, map model %v", items, err, want)
		}
	})
}

// BenchmarkValidate checks the adjacency-list promise on the sorted stream
// of the repository benchmark's cl2k shape (n = 2000, γ = 2.2, maximum
// degree 400; 6,120 items).
func BenchmarkValidate(b *testing.B) {
	g, err := gen.ChungLu(2000, 2.2, 400, 1)
	if err != nil {
		b.Fatal(err)
	}
	items := Sorted(g).Items()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Validate(items); err != nil {
			b.Fatal(err)
		}
	}
}
