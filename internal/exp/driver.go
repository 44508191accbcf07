package exp

import (
	"context"
	"sync"

	"adjstream/internal/stream"
)

// The experiment harness runs many independent estimator copies over the
// same stream (trials, median amplification, budget searches). runCopies is
// the single choke point through which all of them execute — on the stream
// package's copy pool, every copy reading the stream itself — so driver
// counters accumulate in one place, for the run journals.

var (
	driverMu      sync.Mutex
	driverCounter stream.DriverStats
)

// runCopies drives every estimator over s on the copy pool
// (stream.RunBroadcastContext) and accumulates the driver counters.
// Per-copy results are identical to sequential stream.Run, so experiment
// outputs match sequential runs.
func runCopies(s *stream.Stream, ests []stream.Estimator) {
	// context.Background never fires, so the run cannot fail.
	st, _ := stream.RunBroadcastContext(context.Background(), s, ests)
	driverMu.Lock()
	driverCounter.Merge(st)
	driverMu.Unlock()
}

// DriverCounters returns the accumulated driver stats of every runCopies
// call since the last reset.
func DriverCounters() stream.DriverStats {
	driverMu.Lock()
	defer driverMu.Unlock()
	return driverCounter
}
