package adjstream

// The arbitrary-order copy runner's bounds: a run holds at most
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

// countedCopy forwards to a real arbitrary-order copy and keeps a
// copyCounter.
type countedCopy struct {
	arbitrary.Estimator
	c *copyCounter
}

func (e countedCopy) StartPass(p int) {
	if p == 0 {
		raise(&e.c.peakRunning, e.c.running.Add(1))
		if n := e.c.started.Add(1); n == e.c.cancelAfter {
			e.c.cancel()
		}
	}
	e.Estimator.StartPass(p)
}

func (e countedCopy) EndPass(p int) {
	e.Estimator.EndPass(p)
	if p == e.Passes()-1 {
		e.c.running.Add(-1)
	}
}

func (e countedCopy) Recycle() {
	e.c.live.Add(-1)
	e.Estimator.(recycler).Recycle()
}

// counted returns a copy builder for opts over s that counts into c.
func (c *copyCounter) counted(opts Options, s *ArbitraryStream) func(i int) (arbitrary.Estimator, error) {
	k, n := opts.copies(), s.N()
	return func(i int) (arbitrary.Estimator, error) {
		e, err := opts.newArbitrary(opts.copySeed(i, k), n)
		if err != nil {
			return nil, err
		}
		raise(&c.peakLive, c.live.Add(1))
		return countedCopy{e, c}, nil
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

func TestArbitraryRunBoundsLiveCopiesAndGoroutines(t *testing.T) {
	g, err := gen.ChungLu(400, 2.2, 80, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := NewArbitraryStream(RandomStream(g, 2))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, k := range []int{1, 3, 9, 17} {
			for _, parallel := range []bool{false, true} {
				name := fmt.Sprintf("procs%d/k%d/parallel=%v", procs, k, parallel)
				bound := int64(1)
				if parallel {
					bound = int64(min(k, procs))
				}
				opts := Options{Model: ModelArbitrary, Algorithm: AlgoArbNearOptFourCycle, SampleProb: 0.2, Copies: k, Parallel: parallel, Seed: 5}
				want, err := EstimateArbitraryContext(context.Background(), s, opts)
				if err != nil {
					t.Fatal(err)
				}

				base := runtime.NumGoroutine()
				var c copyCounter
				got, err := opts.runArbitrary(context.Background(), s, c.counted(opts, s))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
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

				// Canceled once the second copy starts: every worker stops,
				// the copies in flight are dropped, and nothing is left
				// running.
				if k < 2 {
					continue
				}
				ctx, cancel := context.WithCancel(context.Background())
				c = copyCounter{cancelAfter: 2, cancel: cancel}
				_, err = opts.runArbitrary(ctx, s, c.counted(opts, s))
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
