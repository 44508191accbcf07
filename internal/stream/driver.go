package stream

import (
	"context"
	"fmt"

	"adjstream/internal/graph"
)

// Algorithm is a multi-pass adjacency-list streaming algorithm. The driver
// calls StartPass, then for each adjacency list StartList, Edge (once per
// item), EndList, and finally EndPass — in stream order, item at a time, so
// the algorithm can only use the state it explicitly stores.
type Algorithm interface {
	// Passes returns the number of passes the algorithm requires.
	Passes() int
	// StartPass is called before the first item of pass p (0-based).
	StartPass(p int)
	// StartList is called when the adjacency list of owner begins.
	StartList(owner graph.V)
	// Edge is called for each item (owner, nbr) of the current list.
	Edge(owner, nbr graph.V)
	// EndList is called when the adjacency list of owner ends.
	EndList(owner graph.V)
	// EndPass is called after the last item of pass p.
	EndPass(p int)
}

// Run replays s once per pass of a. Every pass sees the identical order, the
// setting required by the paper's two-pass triangle algorithm.
func Run(s *Stream, a Algorithm) {
	// context.Background never fires, so RunContext cannot fail here.
	_ = RunContext(context.Background(), s, a)
}

// RunContext is Run with cooperative cancellation: it replays s once per
// pass of a, polling ctx before every chunk (DefaultChunkItems items for
// in-memory streams). On cancellation it abandons the run — the current
// pass's EndList/EndPass are not delivered, and a's state is unspecified —
// and returns ctx.Err(). A context that never fires adds no per-item work
// and yields exactly the callback sequence of Run.
func RunContext(ctx context.Context, s *Stream, a Algorithm) error {
	_, _, err := walk(ctx, s, a, teleForDriver("run"))
	return err
}

// RunOrders drives a with a (possibly) different stream per pass. All
// streams must present the same graph; this models algorithms such as the
// 4-cycle counter that do not require identical pass orders. It returns an
// error if the number of streams does not match the pass count or the
// streams disagree on the edge count.
func RunOrders(streams []*Stream, a Algorithm) error {
	if len(streams) != a.Passes() {
		return fmt.Errorf("stream: %d streams for %d passes", len(streams), a.Passes())
	}
	for i := 1; i < len(streams); i++ {
		if streams[i].M() != streams[0].M() {
			return fmt.Errorf("stream: pass %d has m=%d, pass 0 has m=%d", i, streams[i].M(), streams[0].M())
		}
	}
	tt := teleForDriver("run")
	for p, s := range streams {
		start := tt.startPass()
		// context.Background never fires, so the pass cannot fail.
		n, _ := walkPass(context.Background(), s, a, p)
		tt.endPass(start, int64(s.Len()), int64(n))
	}
	tt.copies.Add(1)
	return nil
}

// walk drives every pass of a over s through walkPass under ctx, records
// each completed pass and the completed copy in tt, and returns the items
// and chunks it walked. A canceled pass stops walk with ctx.Err().
func walk(ctx context.Context, s *Stream, a Algorithm, tt driverTele) (items, chunks int64, err error) {
	for p := 0; p < a.Passes(); p++ {
		start := tt.startPass()
		n, err := walkPass(ctx, s, a, p)
		read := s.itemsIn(n)
		items += read
		chunks += int64(n)
		if err != nil {
			return items, chunks, err
		}
		tt.endPass(start, read, int64(n))
	}
	tt.copies.Add(1)
	return items, chunks, nil
}

// walkPass delivers pass p of s to a: StartPass, then each whole chunk,
// then the close of the last open list and EndPass. ctx is polled before
// the pass and before every chunk; an aborted pass stops there without
// closing the open list. It returns the number of chunks walked.
func walkPass(ctx context.Context, s *Stream, a Algorithm, p int) (chunks int, err error) {
	done := ctx.Done()
	if done != nil {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
	}
	a.StartPass(p)
	var cur listCursor
	for i := range s.chunks {
		if done != nil && i > 0 {
			if err := ctx.Err(); err != nil {
				return chunks, err
			}
		}
		c := &s.chunks[i]
		walkChunk(a, c, cur)
		cur = cur.advance(c)
		chunks++
	}
	if cur.open {
		a.EndList(cur.owner)
	}
	a.EndPass(p)
	return chunks, nil
}

// listCursor is the adjacency list left open at a chunk boundary. Lists may
// span chunks, so a chunk that starts a new list first closes the one its
// predecessors left open.
type listCursor struct {
	owner graph.V
	open  bool
}

// advance returns the cursor after c: the owner of c's last item, or cur
// itself when c is empty.
func (cur listCursor) advance(c *Chunk) listCursor {
	if n := len(c.Owners); n > 0 {
		return listCursor{owner: graph.V(c.Owners[n-1]), open: true}
	}
	return cur
}

// walkChunk delivers chunk c to a, given the list cur left open before it:
// Edge for every item, and at every run offset EndList for the open list
// followed by StartList for the new one. It is the only place the drivers
// turn columns into callbacks.
func walkChunk(a Algorithm, c *Chunk, cur listCursor) {
	i := 0
	for _, r := range c.Runs {
		for ; i < int(r); i++ {
			a.Edge(graph.V(c.Owners[i]), graph.V(c.Nbrs[i]))
		}
		if cur.open {
			a.EndList(cur.owner)
		}
		cur = listCursor{owner: graph.V(c.Owners[r]), open: true}
		a.StartList(cur.owner)
	}
	for ; i < len(c.Owners); i++ {
		a.Edge(graph.V(c.Owners[i]), graph.V(c.Nbrs[i]))
	}
}

// Estimator is an Algorithm that produces a numeric estimate after its final
// pass, along with the peak number of machine words of state it used.
type Estimator interface {
	Algorithm
	// Estimate returns the final estimate; valid after Run.
	Estimate() float64
	// SpaceWords returns the peak words of state used across all passes.
	SpaceWords() int64
}

// Estimate runs e over s and returns its estimate and peak space.
func Estimate(s *Stream, e Estimator) (est float64, words int64) {
	Run(s, e)
	return e.Estimate(), e.SpaceWords()
}
