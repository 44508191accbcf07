package stream_test

import (
	"context"
	"fmt"

	"adjstream/internal/graph"
	"adjstream/internal/stream"
)

// itemCounter is a minimal two-pass Algorithm: it counts the items and
// adjacency lists each pass delivers.
type itemCounter struct {
	pass  int
	items [2]int
	lists [2]int
}

func (c *itemCounter) Passes() int         { return 2 }
func (c *itemCounter) StartPass(p int)     { c.pass = p }
func (c *itemCounter) StartList(v graph.V) {}
func (c *itemCounter) Edge(o, n graph.V)   { c.items[c.pass]++ }
func (c *itemCounter) EndList(v graph.V)   { c.lists[c.pass]++ }
func (c *itemCounter) EndPass(p int)       {}

// Example drives a two-pass algorithm over the sorted adjacency-list
// stream of a triangle: every pass sees each edge twice, once in each
// endpoint's list.
func Example() {
	g := graph.MustFromEdges([]graph.Edge{{U: 1, V: 2}, {U: 2, V: 3}, {U: 1, V: 3}})
	s := stream.Sorted(g)
	c := &itemCounter{}
	stream.Run(s, c)
	fmt.Printf("m=%d pass 0: %d items in %d lists; pass 1: %d items in %d lists\n",
		s.M(), c.items[0], c.lists[0], c.items[1], c.lists[1])
	// Output:
	// m=3 pass 0: 6 items in 3 lists; pass 1: 6 items in 3 lists
}

// ExampleRunBroadcastContext runs several prebuilt estimator copies on the
// copy pool; every copy reads the stream itself, and the driver stats count
// what the copies read.
func ExampleRunBroadcastContext() {
	g := graph.MustFromEdges([]graph.Edge{{U: 1, V: 2}, {U: 2, V: 3}, {U: 1, V: 3}})
	s := stream.Sorted(g)
	copies := make([]stream.Estimator, 3)
	ests := make([]*itemEstimator, 3)
	for i := range copies {
		ests[i] = &itemEstimator{}
		copies[i] = ests[i]
	}
	st, err := stream.RunBroadcastContext(context.Background(), s, copies)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("copies=%d stream items read=%d delivered=%d\n",
		st.Copies, st.StreamItemsRead, st.ItemsDelivered)
	fmt.Printf("each copy saw %v items\n", ests[0].items)
	// Output:
	// copies=3 stream items read=18 delivered=18
	// each copy saw 6 items
}

// itemEstimator counts delivered items and reports them as its estimate.
type itemEstimator struct{ items int64 }

func (e *itemEstimator) Passes() int         { return 1 }
func (e *itemEstimator) StartPass(p int)     {}
func (e *itemEstimator) StartList(v graph.V) {}
func (e *itemEstimator) Edge(o, n graph.V)   { e.items++ }
func (e *itemEstimator) EndList(v graph.V)   {}
func (e *itemEstimator) EndPass(p int)       {}
func (e *itemEstimator) Estimate() float64   { return float64(e.items) }
func (e *itemEstimator) SpaceWords() int64   { return 1 }
