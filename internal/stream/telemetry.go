package stream

import (
	"time"

	"adjstream/internal/telemetry"
)

// Driver telemetry. Handles are resolved once per driver run (one atomic
// load plus, when enabled, a handful of registry lookups) and then updated
// at pass granularity, so the per-item hot path carries no instrumentation
// at all. With telemetry disabled every handle is nil and each update is a
// nil check — the ≤2% BenchmarkDriver overhead budget of DESIGN.md §4d.
//
// Metric names, per driver name ("run" for RunContext and for k-copy runs
// on one worker, "broadcast" for k-copy runs on more than one worker; the
// name is kept from the broadcast driver the copy pool replaced):
//
//	driver.<name>.pass_ns         histogram — wall time per copy pass
//	driver.<name>.items_per_sec   gauge     — throughput of the last pass
//	driver.<name>.items_read      counter   — stream items read
//	driver.<name>.items_delivered counter   — items delivered to copies
//	driver.<name>.passes          counter   — copy passes completed
//	driver.<name>.copies          counter   — estimator copies completed
//	driver.<name>.batches         counter   — chunks walked, summed over copies
//	driver.broadcast.pass_skew_ns histogram — spread of a run's worker
//	                                          finish times (stragglers)
type driverTele struct {
	passNS      *telemetry.Histogram
	itemsPerSec *telemetry.Gauge
	itemsRead   *telemetry.Counter
	delivered   *telemetry.Counter
	passes      *telemetry.Counter
	copies      *telemetry.Counter
	batches     *telemetry.Counter
	skew        *telemetry.Histogram
}

// teleForDriver binds the handle set for the named driver, or the all-nil
// zero value when telemetry is disabled.
func teleForDriver(name string) driverTele {
	r := telemetry.Global()
	if r == nil {
		return driverTele{}
	}
	prefix := "driver." + name + "."
	return driverTele{
		passNS:      r.Histogram(prefix + "pass_ns"),
		itemsPerSec: r.Gauge(prefix + "items_per_sec"),
		itemsRead:   r.Counter(prefix + "items_read"),
		delivered:   r.Counter(prefix + "items_delivered"),
		passes:      r.Counter(prefix + "passes"),
		copies:      r.Counter(prefix + "copies"),
		batches:     r.Counter(prefix + "batches"),
		skew:        r.Histogram(prefix + "pass_skew_ns"),
	}
}

// startPass returns the pass start time, or the zero time when disabled
// (skipping the clock read entirely).
func (t driverTele) startPass() time.Time {
	if t.passNS == nil {
		return time.Time{}
	}
	return time.Now()
}

// endPass records one completed pass that read items stream items in
// chunks chunks.
func (t driverTele) endPass(start time.Time, items, chunks int64) {
	if t.passNS == nil {
		return
	}
	el := time.Since(start)
	t.passNS.Observe(int64(el))
	if el > 0 {
		t.itemsPerSec.Set(int64(float64(items) * float64(time.Second) / float64(el)))
	}
	t.itemsRead.Add(items)
	t.delivered.Add(items)
	t.batches.Add(chunks)
	t.passes.Add(1)
}
