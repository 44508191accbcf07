package stream

// Cancellation tests for the context-aware drivers: a cancelled run must
// stop promptly at a chunk boundary, return ctx.Err(), and leak no
// goroutines — and a never-firing context must not perturb a single
// callback relative to the pre-context drivers.

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adjstream/internal/graph"
)

// gateEstimator counts Edge callbacks and, at the trip count, signals
// tripped (once) and then blocks until release closes. It lets tests park a
// driver mid-pass deterministically. Safe for concurrent shards: only one
// copy is a gateEstimator per test.
type gateEstimator struct {
	tracer
	n       atomic.Int64
	trip    int64
	tripped chan struct{}
	release chan struct{}
	once    sync.Once
}

func newGateEstimator(passes int, trip int64) *gateEstimator {
	return &gateEstimator{
		tracer:  tracer{passes: passes},
		trip:    trip,
		tripped: make(chan struct{}),
		release: make(chan struct{}),
	}
}

func (e *gateEstimator) Edge(o, n graph.V) {
	if e.n.Add(1) == e.trip {
		e.once.Do(func() { close(e.tripped) })
		<-e.release
	}
}
func (e *gateEstimator) StartPass(int)     {}
func (e *gateEstimator) EndPass(int)       {}
func (e *gateEstimator) StartList(graph.V) {}
func (e *gateEstimator) EndList(graph.V)   {}
func (e *gateEstimator) Estimate() float64 { return float64(e.n.Load()) }
func (e *gateEstimator) SpaceWords() int64 { return 1 }

// waitGoroutines asserts the goroutine count returns to within slack of
// base, retrying briefly (worker exit is asynchronous after Wait).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not drain: %d > base %d", n, base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRunContextCanceledBeforeStart(t *testing.T) {
	s := singleEdgeStream(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr := &tracer{passes: 2}
	if err := RunContext(ctx, s, tr); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(tr.events) != 0 {
		t.Fatalf("cancelled run delivered callbacks: %v", tr.events)
	}
}

func TestRunContextBackgroundMatchesRun(t *testing.T) {
	g := randomGraph(30, 0.2, 5)
	s := Random(g, 3)
	want := &tracer{passes: 2}
	Run(s, want)
	got := &tracer{passes: 2}
	if err := RunContext(context.Background(), s, got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.events, want.events) {
		t.Fatal("RunContext(Background) trace diverges from Run")
	}
}

// TestRunContextCancelMidPass parks a sequential run at its trip edge,
// cancels, and checks the run stops at the next chunk boundary.
func TestRunContextCancelMidPass(t *testing.T) {
	g := randomGraph(60, 0.3, 7)
	s := Random(g, 1)
	if s.Len() < 2*DefaultChunkItems/4 {
		t.Skipf("stream too small: %d items", s.Len())
	}
	e := newGateEstimator(2, 10)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- RunContext(ctx, s, e) }()
	<-e.tripped
	cancel()
	close(e.release)
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The run delivered at most one more chunk after the cancel point.
	if n := e.n.Load(); n > 10+int64(DefaultChunkItems) {
		t.Fatalf("delivered %d edges after cancel at 10 (check interval %d)", n, DefaultChunkItems)
	}
}

// TestRunContextDeadline checks deadline expiry surfaces as DeadlineExceeded.
func TestRunContextDeadline(t *testing.T) {
	g := randomGraph(60, 0.3, 2)
	s := Random(g, 4)
	e := newGateEstimator(2, 5)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- RunContext(ctx, s, e) }()
	<-e.tripped
	<-ctx.Done() // park past the deadline
	close(e.release)
	if err := <-errc; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestBroadcastContextCancelMidPass parks one worker on its first edge,
// cancels, and checks that every worker abandons the pass at its next
// chunk boundary, exits, and the stream was not fully read.
func TestBroadcastContextCancelMidPass(t *testing.T) {
	g := randomGraph(80, 0.4, 3)
	s := Random(g, 2)
	base := runtime.NumGoroutine()
	gate := newGateEstimator(2, 1) // parks on the very first edge
	others := make([]Estimator, 0, 4)
	for i := 0; i < 4; i++ {
		others = append(others, &sumEstimator{tracer: tracer{passes: 2}})
	}
	ests := append([]Estimator{gate}, others...)
	ctx, cancel := context.WithCancel(context.Background())
	type out struct {
		st  DriverStats
		err error
	}
	outc := make(chan out, 1)
	go func() {
		st, err := runBroadcast(ctx, chunkedStream(s, 8, 0), ests, len(ests))
		outc <- out{st, err}
	}()
	<-gate.tripped
	cancel()
	close(gate.release)
	res := <-outc
	if !errors.Is(res.err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", res.err)
	}
	// Two passes over 2m items is the full read; a cancelled first pass
	// must have read strictly less.
	if full := int64(2 * s.Len()); res.st.StreamItemsRead >= full {
		t.Fatalf("StreamItemsRead = %d, want < %d after mid-pass cancel", res.st.StreamItemsRead, full)
	}
	waitGoroutines(t, base)
}

func TestBroadcastContextBackgroundMatchesBroadcast(t *testing.T) {
	g := randomGraph(40, 0.2, 9)
	s := Random(g, 7)
	const k = 6
	want := make([]*sumEstimator, k)
	got := make([]Estimator, k)
	for i := 0; i < k; i++ {
		want[i] = &sumEstimator{tracer: tracer{passes: 2}}
		Run(s, want[i])
		got[i] = &sumEstimator{tracer: tracer{passes: 2}}
	}
	st, err := RunBroadcastContext(context.Background(), s, got)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if got[i].Estimate() != want[i].Estimate() {
			t.Fatalf("copy %d diverges under a background context", i)
		}
	}
	if st.Passes != 2 || st.StreamItemsRead != int64(2*s.Len()) {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMedianBroadcastContextCanceled(t *testing.T) {
	g := randomGraph(30, 0.3, 1)
	s := Random(g, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ests := []Estimator{&sumEstimator{tracer: tracer{passes: 2}}}
	_, _, _, err := MedianBroadcastContext(ctx, s, ests)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
