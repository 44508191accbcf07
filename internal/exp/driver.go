package exp

import (
	"context"
	"sync"

	"adjstream/internal/stream"
)

// The experiment harness runs many independent estimator copies over the
// same stream (trials, median amplification, budget searches). runCopies is
// the single choke point through which all of them execute — on the
// broadcast driver, one stream read per pass shared by all copies — so
// driver counters accumulate in one place.

var (
	driverMu      sync.Mutex
	driverCounter stream.DriverStats
)

// runCopies drives every estimator over s with the broadcast driver and
// accumulates the driver counters. Per-copy results are identical to
// sequential stream.Run, so experiment outputs match sequential runs.
func runCopies(s *stream.Stream, ests []stream.Estimator) {
	// context.Background never fires, so the run cannot fail.
	st, _ := stream.RunBroadcastContext(context.Background(), s, ests)
	driverMu.Lock()
	driverCounter.Merge(st)
	driverMu.Unlock()
}

// runOne is runCopies for a single estimator; kept sequential (no fan-out
// machinery) but still counted, so the driver report covers every stream
// traversal the harness performs.
func runOne(s *stream.Stream, e stream.Estimator) {
	stream.Run(s, e)
	read := int64(e.Passes()) * int64(s.Len())
	driverMu.Lock()
	driverCounter.Merge(stream.DriverStats{Copies: 1, Passes: e.Passes(), StreamItemsRead: read, ItemsDelivered: read})
	driverMu.Unlock()
}

// DriverCounters returns the accumulated driver stats of every runCopies /
// runOne call since the last reset. Their ItemsDelivered is what replaying
// the stream once per copy would have read.
func DriverCounters() stream.DriverStats {
	driverMu.Lock()
	defer driverMu.Unlock()
	return driverCounter
}

// ResetDriverCounters zeroes the accumulated driver stats.
func ResetDriverCounters() {
	driverMu.Lock()
	defer driverMu.Unlock()
	driverCounter = stream.DriverStats{}
}

// DriverReport renders the accumulated driver counters as a table, printed
// by cmd/experiments alongside the space-words columns of the experiment
// tables: the same reporting path, one level up.
func DriverReport() *Table {
	used := DriverCounters()
	savings := "1.00"
	if used.StreamItemsRead > 0 {
		savings = f2(float64(used.ItemsDelivered) / float64(used.StreamItemsRead))
	}
	return &Table{
		ID:    "D1",
		Title: "Execution driver counters (broadcast)",
		Claim: "the broadcast driver reads each stream once per pass regardless of copy count",
		Header: []string{
			"copies run", "stream items read", "items delivered", "batches",
			"read reduction ×",
		},
		Rows: [][]string{{
			d(int64(used.Copies)), d(used.StreamItemsRead), d(used.ItemsDelivered),
			d(used.Batches), savings,
		}},
	}
}
