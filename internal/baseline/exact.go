package baseline

import (
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

	// Restored-run summary (state.go); nil unless Restore was called.
	snap *stream.CopyState
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
func (e *ExactStream) StartPass(int) {}

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

// Estimate returns the exact cycle count.
func (e *ExactStream) Estimate() float64 {
	if e.snap != nil {
		return e.snap.Estimate
	}
	g := e.builder.Graph()
	n, err := g.CountCycles(e.cycleLen)
	if err != nil {
		return 0
	}
	return float64(n)
}

// SpaceWords implements stream.Estimator.
func (e *ExactStream) SpaceWords() int64 {
	if e.snap != nil {
		return e.snap.SpaceWords
	}
	return e.meter.Peak()
}

// M returns the measured edge count.
func (e *ExactStream) M() int64 {
	if e.snap != nil {
		return e.snap.M
	}
	return e.builder.M()
}
