package adjstream

// The copy pool's bounds, in both streaming models: a run holds at most
// min(k, GOMAXPROCS) copy states (one when sequential) and runs at most
// that many copies at once, a canceled run answers ErrCanceled, and no run
// leaves a goroutine behind.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"adjstream/internal/arbitrary"
	"adjstream/internal/gen"
)

// copyCounter counts the copies of a run that are built and not yet
// recycled (live) and the copies between their first and last pass
// (running), with the peak of each.
type copyCounter struct {
	live, running, peakLive, peakRunning atomic.Int64
	cancelAfter                          int64 // cancel once this many copies started; 0 never
	started                              atomic.Int64
	cancel                               context.CancelFunc
}

func raise(peak *atomic.Int64, v int64) {
	for {
		p := peak.Load()
		if v <= p || peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// built counts a copy the run built.
func (c *copyCounter) built() { raise(&c.peakLive, c.live.Add(1)) }

// startPass counts a copy entering pass p.
func (c *copyCounter) startPass(p int) {
	if p == 0 {
		raise(&c.peakRunning, c.running.Add(1))
		if n := c.started.Add(1); n == c.cancelAfter {
			c.cancel()
		}
	}
}

// endPass counts a copy leaving pass p of passes.
func (c *copyCounter) endPass(p, passes int) {
	if p == passes-1 {
		c.running.Add(-1)
	}
}

// countedCopy forwards to a real arbitrary-order copy and keeps a
// copyCounter.
type countedCopy struct {
	arbitrary.Estimator
	c *copyCounter
}

func (e countedCopy) StartPass(p int) { e.c.startPass(p); e.Estimator.StartPass(p) }
func (e countedCopy) EndPass(p int)   { e.Estimator.EndPass(p); e.c.endPass(p, e.Passes()) }
func (e countedCopy) Recycle()        { e.c.live.Add(-1); e.Estimator.(recycler).Recycle() }

// countedListCopy forwards to a real adjacency-list copy and keeps a
// copyCounter.
type countedListCopy struct {
	Estimator
	c *copyCounter
}

func (e countedListCopy) StartPass(p int) { e.c.startPass(p); e.Estimator.StartPass(p) }
func (e countedListCopy) EndPass(p int)   { e.Estimator.EndPass(p); e.c.endPass(p, e.Passes()) }
func (e countedListCopy) Recycle()        { e.c.live.Add(-1); e.Estimator.(recycler).Recycle() }

// counted wraps an arbitrary-order copy builder so its copies count into c.
func (c *copyCounter) counted(newCopy func(seed uint64) (arbitrary.Estimator, error)) func(seed uint64) (arbitrary.Estimator, error) {
	return func(seed uint64) (arbitrary.Estimator, error) {
		e, err := newCopy(seed)
		if err != nil {
			return nil, err
		}
		c.built()
		return countedCopy{e, c}, nil
	}
}

// countedList wraps an adjacency-list copy builder so its copies count
// into c.
func (c *copyCounter) countedList(newCopy func(seed uint64) (Estimator, error)) func(seed uint64) (Estimator, error) {
	return func(seed uint64) (Estimator, error) {
		e, err := newCopy(seed)
		if err != nil {
			return nil, err
		}
		c.built()
		return countedListCopy{e, c}, nil
	}
}

// settleGoroutines waits until no more goroutines run than base, and fails
// t if that does not happen within a few seconds.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running, want at most %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestArbitraryRunBoundsLiveCopiesAndGoroutines runs a recyclable
// estimator of each model through the facade's runners with counting
// copies, at GOMAXPROCS 1, 2 and 4, k 1, 3, 9 and 17, sequential and
// parallel.
func TestArbitraryRunBoundsLiveCopiesAndGoroutines(t *testing.T) {
	g, err := gen.ChungLu(400, 2.2, 80, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := RandomStream(g, 2)
	as := NewArbitraryStream(s)
	models := []struct {
		name string
		opts Options
		run  func(ctx context.Context, o Options, c *copyCounter) (Result, error)
	}{
		{"adjacency-list", Options{Algorithm: AlgoTwoPassTriangle, SampleSize: 256},
			func(ctx context.Context, o Options, c *copyCounter) (Result, error) {
				med := newMedian(o.copies())
				st, err := o.runCopies(ctx, s, 0, o.copies(), c.countedList(o.wrapSingle), med.read)
				return o.adjacencyResult(med, s, st), err
			}},
		{"arbitrary", Options{Model: ModelArbitrary, Algorithm: AlgoArbNearOptFourCycle, SampleProb: 0.2},
			func(ctx context.Context, o Options, c *copyCounter) (Result, error) {
				med := newMedian(o.copies())
				err := o.arbitraryCopies(ctx, as, 0, o.copies(), c.counted(o.arbitraryBuilder(as)), med.read)
				return med.result(as.M()), err
			}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, k := range []int{1, 3, 9, 17} {
			for _, parallel := range []bool{false, true} {
				for _, m := range models {
					name := fmt.Sprintf("%s/procs%d/k%d/parallel=%v", m.name, procs, k, parallel)
					bound := int64(1)
					if parallel {
						bound = int64(min(k, procs))
					}
					opts := m.opts
					opts.Copies, opts.Parallel, opts.Seed = k, parallel, 5
					want, err := EstimateContext(context.Background(), s, opts)
					if err != nil {
						t.Fatal(err)
					}

					base := runtime.NumGoroutine()
					var c copyCounter
					got, err := m.run(context.Background(), opts, &c)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					// The counters' worker skew is timing; everything else
					// must match the plain run.
					got.DriverStats.PassSkewNS, want.DriverStats.PassSkewNS = 0, 0
					if got != want {
						t.Errorf("%s: counted run %+v, want %+v", name, got, want)
					}
					if c.peakLive.Load() > bound || c.peakRunning.Load() > bound {
						t.Errorf("%s: %d copies live and %d running at once, want at most %d",
							name, c.peakLive.Load(), c.peakRunning.Load(), bound)
					}
					if c.live.Load() != 0 {
						t.Errorf("%s: %d copies not recycled after a completed run", name, c.live.Load())
					}
					settleGoroutines(t, base)

					// Canceled once the second copy starts: every worker
					// stops, the copies in flight are dropped, and nothing is
					// left running.
					if k < 2 {
						continue
					}
					ctx, cancel := context.WithCancel(context.Background())
					c = copyCounter{cancelAfter: 2, cancel: cancel}
					_, err = m.run(ctx, opts, &c)
					cancel()
					if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
						t.Errorf("%s: canceled run err = %v, want ErrCanceled wrapping context.Canceled", name, err)
					}
					if c.peakLive.Load() > bound || c.live.Load() > bound {
						t.Errorf("%s: canceled run held %d copies at once and dropped %d, want at most %d",
							name, c.peakLive.Load(), c.live.Load(), bound)
					}
					settleGoroutines(t, base)
				}
			}
		}
	}
}
