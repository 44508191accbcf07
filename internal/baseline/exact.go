package baseline

import (
	"context"
	"fmt"

	"adjstream/internal/graph"
	"adjstream/internal/space"
	"adjstream/internal/stream"
)

// ExactStream is the trivial O(m)-space single-pass algorithm: store every
// edge and count exactly at the end. It anchors the space axis of every
// Table 1 comparison and provides ground truth inside the streaming harness.
type ExactStream struct {
	cycleLen int
	builder  *graph.Builder
	items    int64
	meter    space.Meter
	count    float64 // the cycle count, once counted
	counted  bool
}

var _ stream.Estimator = (*ExactStream)(nil)

// NewExactStream returns an exact counter for cycles of length cycleLen ≥ 3.
func NewExactStream(cycleLen int) (*ExactStream, error) {
	if cycleLen < 3 {
		return nil, fmt.Errorf("baseline: cycle length %d < 3", cycleLen)
	}
	e := &ExactStream{cycleLen: cycleLen, builder: graph.NewBuilder()}
	attachMeter("exact_stream", &e.meter)
	return e, nil
}

// Passes implements stream.Algorithm.
func (e *ExactStream) Passes() int { return 1 }

// StartPass implements stream.Algorithm.
func (e *ExactStream) StartPass(int) { e.counted = false }

// StartList implements stream.Algorithm.
func (e *ExactStream) StartList(owner graph.V) {}

// Edge implements stream.Algorithm.
func (e *ExactStream) Edge(owner, nbr graph.V) {
	e.items++
	if e.builder.AddIfAbsent(owner, nbr) {
		e.meter.Charge(space.WordsPerEdge)
	}
}

// EndList implements stream.Algorithm.
func (e *ExactStream) EndList(owner graph.V) {}

// EndPass implements stream.Algorithm.
func (e *ExactStream) EndPass(p int) {}

// Finish counts the stored graph's cycles under ctx, so that a deadline
// stops the count and not only the pass loop, and returns ctx's error if
// it fires first. After a successful Finish, Estimate returns the count
// without counting again.
func (e *ExactStream) Finish(ctx context.Context) error {
	n, err := e.builder.Graph().CountCyclesContext(ctx, e.cycleLen)
	if err != nil {
		return err
	}
	e.count, e.counted = float64(n), true
	return nil
}

// Estimate returns the exact cycle count, counting it first unless Finish
// already has.
func (e *ExactStream) Estimate() float64 {
	if !e.counted {
		_ = e.Finish(context.Background()) // cannot fail: the context never fires
	}
	return e.count
}

// SpaceWords implements stream.Estimator.
func (e *ExactStream) SpaceWords() int64 {
	return e.meter.Peak()
}

// M returns the measured edge count.
func (e *ExactStream) M() int64 {
	return e.builder.M()
}
