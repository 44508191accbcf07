package stream

// Tests for the driver counters (reported by the broadcast workers and
// merged after each pass) and for the driver telemetry. These run under
// `make race` / the race CI job, which is what actually asserts that the
// worker counter sharing is sound.

import (
	"context"
	"sync"
	"testing"

	"adjstream/internal/telemetry"
)

// TestDriverStatsAtomicCounters drives many concurrent broadcast runs over
// the same stream and checks every run's counters exactly. Each pass's
// workers report their counts through per-worker slots merged after the
// pass barrier; under -race this test is the assertion that the sharing is
// data-race-free.
func TestDriverStatsAtomicCounters(t *testing.T) {
	g := randomGraph(40, 0.2, 11)
	s := chunkedStream(Random(g, 7), 64, 0)
	const runs, k, workers = 8, 16, 4
	var wg sync.WaitGroup
	stats := make([]DriverStats, runs)
	errs := make([]error, runs)
	for r := 0; r < runs; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			stats[r], errs[r] = runBroadcast(context.Background(), s, sums(k), workers)
		}(r)
	}
	wg.Wait()
	chunksPerPass := int64(len(s.Chunks()) * workers)
	for r, st := range stats {
		if errs[r] != nil {
			t.Fatalf("run %d: %v", r, errs[r])
		}
		if st.Copies != k || st.Passes != 2 || st.Workers != workers {
			t.Fatalf("run %d: stats = %+v", r, st)
		}
		if want := int64(2 * s.Len()); st.StreamItemsRead != want {
			t.Fatalf("run %d: StreamItemsRead = %d, want %d", r, st.StreamItemsRead, want)
		}
		if want := int64(2 * s.Len() * k); st.ItemsDelivered != want {
			t.Fatalf("run %d: ItemsDelivered = %d, want %d", r, st.ItemsDelivered, want)
		}
		if want := 2 * chunksPerPass; st.Batches != want {
			t.Fatalf("run %d: Batches = %d, want %d", r, st.Batches, want)
		}
	}
}

// TestDriverTelemetry checks the metrics both drivers report into a live
// registry: read/delivery counters, pass counts and timings, copies.
func TestDriverTelemetry(t *testing.T) {
	defer telemetry.Disable()
	r := telemetry.Enable()
	r.Reset()
	g := randomGraph(30, 0.2, 3)
	s := Random(g, 5)

	e := &sumEstimator{tracer: tracer{passes: 2}}
	Run(s, e)
	snap := r.Snapshot()
	if got := snap["driver.run.items_read"]; got != float64(2*s.Len()) {
		t.Fatalf("run items_read = %v, want %d", got, 2*s.Len())
	}
	if got := snap["driver.run.passes"]; got != 2 {
		t.Fatalf("run passes = %v", got)
	}
	if got := snap["driver.run.copies"]; got != 1 {
		t.Fatalf("run copies = %v", got)
	}
	if got := snap["driver.run.pass_ns.count"]; got != 2 {
		t.Fatalf("pass_ns count = %v", got)
	}

	const k = 6
	st, err := runBroadcast(context.Background(), chunkedStream(s, 32, 0), sums(k), 3)
	if err != nil {
		t.Fatal(err)
	}
	snap = r.Snapshot()
	if got := snap["driver.broadcast.items_read"]; got != float64(st.StreamItemsRead) {
		t.Fatalf("broadcast items_read = %v, want %d", got, st.StreamItemsRead)
	}
	if got := snap["driver.broadcast.items_delivered"]; got != float64(st.ItemsDelivered) {
		t.Fatalf("broadcast items_delivered = %v, want %d", got, st.ItemsDelivered)
	}
	if got := snap["driver.broadcast.batches"]; got != float64(st.Batches) {
		t.Fatalf("broadcast batches = %v, want %d", got, st.Batches)
	}
	if got := snap["driver.broadcast.copies"]; got != k {
		t.Fatalf("broadcast copies = %v", got)
	}
	if snap["driver.broadcast.items_per_sec"] <= 0 {
		t.Fatal("items_per_sec not set")
	}
}

// TestBroadcastTelemetryConcurrent has several broadcast runs reporting
// into one shared registry at once (the -listen scenario); totals must add
// up and, under -race, the shared handles must be clean.
func TestBroadcastTelemetryConcurrent(t *testing.T) {
	defer telemetry.Disable()
	r := telemetry.Enable()
	r.Reset()
	g := randomGraph(30, 0.2, 9)
	s := Random(g, 1)
	const runs, k = 6, 8
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = runBroadcast(context.Background(), s, sums(k), 2)
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	if want := float64(runs * 2 * s.Len()); snap["driver.broadcast.items_read"] != want {
		t.Fatalf("items_read = %v, want %v", snap["driver.broadcast.items_read"], want)
	}
	if want := float64(runs * k * 2 * s.Len()); snap["driver.broadcast.items_delivered"] != want {
		t.Fatalf("items_delivered = %v, want %v", snap["driver.broadcast.items_delivered"], want)
	}
	if want := float64(runs * k); snap["driver.broadcast.copies"] != want {
		t.Fatalf("copies = %v, want %v", snap["driver.broadcast.copies"], want)
	}
}
