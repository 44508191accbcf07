package stream

import (
	"context"
	"runtime"
	"sync"
	"time"

	"adjstream/internal/stats"
)

// The paper's estimators are median-of-k independent copies over the same
// adjacency-list stream (Theorems 3.7 and 4.6). Replaying the stream once
// per copy costs O(k · passes · 2m) stream-item reads for what is logically
// O(passes · 2m): every copy sees the identical item sequence. The
// broadcast driver reads the stream once per pass and shares it: the copies
// are split into contiguous shards, one worker per shard, and each worker
// walks the stream's immutable chunks (often mmap-ed straight from an
// "adjC" file) handing every whole chunk to each copy of its shard in turn
// — the same walkPass a sequential run uses. Nothing is copied or sent; the
// only coordination is the per-pass finish barrier. Per-copy semantics are
// exactly those of sequential Run, so deterministic (fixed-seed)
// estimators produce bit-identical estimates.

// DriverStats counts the work a driver run performed. StreamItemsRead
// counts reads of the underlying stream and ItemsDelivered the callback
// deliveries to estimator copies: replaying the stream per copy would need
// one read per delivery, broadcast amortizes one read across all copies of
// a pass.
type DriverStats struct {
	// Copies is the number of estimator copies driven.
	Copies int
	// Passes is the maximum pass count across copies (the number of
	// stream traversals the broadcast driver performs).
	Passes int
	// StreamItemsRead counts items read from the underlying stream.
	StreamItemsRead int64
	// ItemsDelivered counts items delivered to estimator callbacks,
	// summed over copies.
	ItemsDelivered int64
	// Batches counts the chunks walked, summed over workers.
	Batches int64
	// Workers is the largest worker count used in any pass, after
	// clamping to the number of active copies.
	Workers int
	// PassSkewNS is the largest per-pass wall-time spread (slowest worker
	// minus fastest, in nanoseconds) observed across the run's passes.
	// Zero when a pass ran inline on one worker. Stragglers — a shard of
	// copies systematically slower than its peers — show up here.
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

// RunBroadcastContext drives every estimator over s reading the stream once
// per pass (not once per copy per pass), with up to GOMAXPROCS workers.
// Results are identical to calling Run on each estimator separately. Copies
// may disagree on pass count; each copy participates in exactly its own
// first Passes() passes. It returns the driver counters for the run.
//
// Cancellation is polled per chunk — never per item — so a never-firing
// context costs nothing on the hot path. On cancellation the run stops at
// the next chunk boundary and the call returns ctx.Err() with the counters
// accumulated so far; the estimators' state is unspecified. No goroutines
// outlive the call either way.
func RunBroadcastContext(ctx context.Context, s *Stream, ests []Estimator) (DriverStats, error) {
	return runBroadcast(ctx, s, ests, runtime.GOMAXPROCS(0))
}

// runBroadcast is RunBroadcastContext with at most maxWorkers workers.
func runBroadcast(ctx context.Context, s *Stream, ests []Estimator, maxWorkers int) (DriverStats, error) {
	if len(ests) == 0 {
		return DriverStats{}, ctx.Err()
	}
	maxPasses := 0
	for _, e := range ests {
		maxPasses = max(maxPasses, e.Passes())
	}
	tt := teleForDriver("broadcast")
	st := DriverStats{Copies: len(ests)}
	var runErr error
	for p := 0; p < maxPasses; p++ {
		var active []Algorithm
		for _, e := range ests {
			if e.Passes() > p {
				active = append(active, e)
			}
		}
		start := tt.startPass()
		ps, err := broadcastPass(ctx, s, active, p, maxWorkers)
		tt.endPass(start, ps.StreamItemsRead, ps.ItemsDelivered)
		tt.observeSkew(ps.PassSkewNS)
		st.Merge(ps)
		st.Passes = p + 1
		if err != nil {
			runErr = err
			break
		}
	}
	tt.copies.Add(int64(len(ests)))
	tt.batches.Add(st.Batches)
	return st, runErr
}

// broadcastPass runs pass p: each worker walks the shared chunks for its
// contiguous shard of the active copies. The returned stats count the
// items read once (workers share the chunks), the deliveries and chunks
// walked summed over workers, the worker count, and the wall-time skew
// across workers (zero when the pass ran inline on one worker). The
// WaitGroup is the pass finish barrier; the start barrier is implicit in
// the goroutine launches.
func broadcastPass(ctx context.Context, s *Stream, active []Algorithm, p int, maxWorkers int) (DriverStats, error) {
	workers := min(maxWorkers, len(active))
	st := DriverStats{Workers: workers}
	if workers <= 1 {
		// Single worker: run inline, no goroutine, no clock reads.
		chunks, err := walkPass(ctx, s, active, p)
		st.StreamItemsRead = s.itemsIn(chunks)
		st.Batches = int64(chunks)
		st.ItemsDelivered = st.StreamItemsRead * int64(len(active))
		return st, err
	}
	var wg sync.WaitGroup
	shards := make([][]Algorithm, workers)
	walls := make([]int64, workers)
	chunks := make([]int, workers)
	errs := make([]error, workers)
	for w := range shards {
		// Contiguous shards, sizes differing by at most one.
		shards[w] = active[w*len(active)/workers : (w+1)*len(active)/workers]
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			start := time.Now()
			chunks[w], errs[w] = walkPass(ctx, s, shards[w], p)
			walls[w] = int64(time.Since(start))
		}(w)
	}
	wg.Wait()
	minW, maxW := walls[0], walls[0]
	var err error
	for w, shard := range shards {
		minW, maxW = min(minW, walls[w]), max(maxW, walls[w])
		read := s.itemsIn(chunks[w])
		st.StreamItemsRead = max(st.StreamItemsRead, read)
		st.Batches += int64(chunks[w])
		st.ItemsDelivered += read * int64(len(shard))
		if err == nil {
			err = errs[w]
		}
	}
	st.PassSkewNS = maxW - minW
	return st, err
}

// MedianBroadcastContext drives the copies with the broadcast driver and
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
