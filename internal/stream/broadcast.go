package stream

import (
	"cmp"
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"adjstream/internal/stats"
)

// The paper's estimators are medians of k independent copies over the same
// stream (Theorems 3.7 and 4.6). Every k-copy run executes on one bounded
// worker pool, RunPool, and every adjacency-list copy walks the stream
// through walkPass as a sequential Run does. The file keeps the name of
// the broadcast driver the pool replaced, which shared one read of each
// pass among all copies; DESIGN.md §4b gives the measurements that
// retired it.

// DriverStats counts the work a k-copy run performed.
type DriverStats struct {
	// Copies is the number of copies whose run completed.
	Copies int
	// Passes is the largest pass count among the copies run.
	Passes int
	// StreamItemsRead counts items read from the stream, summed over copies.
	StreamItemsRead int64
	// ItemsDelivered counts items delivered to estimator callbacks. Every
	// copy reads the stream itself, so it equals StreamItemsRead.
	ItemsDelivered int64
	// Batches counts the chunks walked, summed over copies and passes.
	Batches int64
	// Workers is the number of pool workers the run used.
	Workers int
	// PassSkewNS is how long, in nanoseconds, the first worker to run out
	// of copies waited for the last (zero with one worker): stragglers.
	PassSkewNS int64
}

// Merge accumulates other into s (peaks by max, counters by sum).
func (s *DriverStats) Merge(other DriverStats) {
	s.Copies += other.Copies
	if other.Passes > s.Passes {
		s.Passes = other.Passes
	}
	s.StreamItemsRead += other.StreamItemsRead
	s.ItemsDelivered += other.ItemsDelivered
	s.Batches += other.Batches
	if other.Workers > s.Workers {
		s.Workers = other.Workers
	}
	if other.PassSkewNS > s.PassSkewNS {
		s.PassSkewNS = other.PassSkewNS
	}
}

// RunPool runs the k copies of a median-of-k run, of either streaming
// model, on min(k, workers) workers, the calling goroutine among them.
// Copy 0 is built before any worker starts, so a build error surfaces
// first. Each worker then takes the next copy index i, builds copy i, runs
// all of its passes with run and hands it to done, which reads it and may
// recycle its state, before it takes another index; so at most
// min(k, workers) copies are live at once. After the first error no worker
// takes another index, the copies in flight are dropped, and RunPool
// returns that error once every worker has stopped. It also returns the
// workers' finish-time spread (DriverStats.PassSkewNS).
func RunPool[E any](k, workers int, build func(i int) (E, error), run func(E) error, done func(i int, e E) error) (skewNS int64, err error) {
	if k == 0 {
		return 0, nil
	}
	first, err := build(0)
	if err != nil {
		return 0, err
	}
	copyAt := func(i int) (err error) {
		var e E
		if i == 0 {
			e, first = first, e // the pool keeps no reference to a copy it handed back
		} else if e, err = build(i); err != nil {
			return err
		}
		if err = run(e); err != nil {
			return err
		}
		return done(i, e)
	}
	var (
		next   atomic.Int64 // the next copy index to take
		failed atomic.Bool
	)
	work := func() error {
		for !failed.Load() {
			i := int(next.Add(1) - 1)
			if i >= k {
				return nil
			}
			if err := copyAt(i); err != nil {
				failed.Store(true)
				return err
			}
		}
		return nil
	}
	workers = max(1, min(k, workers))
	if workers == 1 {
		return 0, work()
	}
	errs := make([]error, workers)
	ends := make([]time.Time, workers)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = work()
			ends[w] = time.Now()
		}()
	}
	errs[0] = work()
	ends[0] = time.Now()
	wg.Wait()
	skew := slices.MaxFunc(ends, time.Time.Compare).Sub(slices.MinFunc(ends, time.Time.Compare))
	return int64(skew), cmp.Or(errs...)
}

// RunCopiesContext runs k adjacency-list copies over s on RunPool: build
// makes copy i, its passes go through walkPass under ctx, and done (nil
// reads nothing) reads it. A canceled run stops at the next chunk boundary
// and returns ctx.Err() with the counters accumulated so far.
func RunCopiesContext(ctx context.Context, s *Stream, k, workers int, build func(i int) (Estimator, error), done func(i int, e Estimator) error) (DriverStats, error) {
	workers = max(1, min(k, workers))
	name := "run"
	if workers > 1 {
		name = "broadcast"
	}
	tt := teleForDriver(name)
	st := DriverStats{Workers: workers}
	var mu sync.Mutex
	run := func(e Estimator) error {
		items, chunks, err := walk(ctx, s, e, tt)
		mu.Lock()
		st.Passes = max(st.Passes, e.Passes())
		st.StreamItemsRead += items
		st.Batches += chunks
		if err == nil {
			st.Copies++
		}
		mu.Unlock()
		return err
	}
	if done == nil {
		done = func(int, Estimator) error { return nil }
	}
	skew, err := RunPool(k, workers, build, run, done)
	st.ItemsDelivered, st.PassSkewNS = st.StreamItemsRead, skew
	if workers > 1 {
		tt.skew.Observe(skew)
	}
	return st, err
}

// RunBroadcastContext drives every prebuilt estimator over s on
// RunCopiesContext with up to GOMAXPROCS workers, with results identical to
// calling Run on each; copies may disagree on pass count. None is
// recycled: the caller reads them afterwards.
func RunBroadcastContext(ctx context.Context, s *Stream, ests []Estimator) (DriverStats, error) {
	if len(ests) == 0 {
		return DriverStats{}, ctx.Err()
	}
	return RunCopiesContext(ctx, s, len(ests), runtime.GOMAXPROCS(0),
		func(i int) (Estimator, error) { return ests[i], nil }, nil)
}

// MedianBroadcastContext drives the copies with RunBroadcastContext and
// returns the median estimate, the summed peak space, and the driver
// counters. On cancellation it returns ctx.Err() with zero estimate and
// space — the copies' state is unspecified after an aborted run — plus the
// driver counters accumulated before the abort.
func MedianBroadcastContext(ctx context.Context, s *Stream, copies []Estimator) (estimate float64, spaceWords int64, st DriverStats, err error) {
	st, err = RunBroadcastContext(ctx, s, copies)
	if err != nil {
		return 0, 0, st, err
	}
	estimate, spaceWords = MedianOf(copies)
	return estimate, spaceWords, st, nil
}

// MedianOf reads the median estimate and summed peak space of copies that
// have completed their run.
func MedianOf(copies []Estimator) (estimate float64, spaceWords int64) {
	xs := make([]float64, len(copies))
	var sp int64
	for i, c := range copies {
		xs[i] = c.Estimate()
		sp += c.SpaceWords()
	}
	return stats.Median(xs), sp
}
