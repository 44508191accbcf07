package stream

// Tests for the driver counters (added up by the pool's workers as their
// copies finish) and for the driver telemetry. These run under `make race`
// / the race CI job, which is what actually asserts that the worker
// counter sharing is sound.

import (
	"context"
	"sync"
	"testing"

	"adjstream/internal/telemetry"
)

// TestDriverStatsAtomicCounters drives many concurrent pool runs over the
// same stream and checks every run's counters exactly. Each copy reads the
// stream itself and its worker adds its counts to the run's as it
// finishes; under -race this test is the assertion that the sharing is
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
			stats[r], errs[r] = runPrebuilt(context.Background(), s, sums(k), workers)
		}(r)
	}
	wg.Wait()
	for r, st := range stats {
		if errs[r] != nil {
			t.Fatalf("run %d: %v", r, errs[r])
		}
		if st.Copies != k || st.Passes != 2 || st.Workers != workers {
			t.Fatalf("run %d: stats = %+v", r, st)
		}
		want := int64(2 * s.Len() * k)
		if st.StreamItemsRead != want || st.ItemsDelivered != want {
			t.Fatalf("run %d: reads %d, delivered %d; want %d each", r, st.StreamItemsRead, st.ItemsDelivered, want)
		}
		if want := int64(2 * len(s.Chunks()) * k); st.Batches != want {
			t.Fatalf("run %d: Batches = %d, want %d", r, st.Batches, want)
		}
	}
}

// TestDriverTelemetry checks the metrics RunContext and a multi-worker
// pool run report into a live registry: read/delivery counters, chunks,
// pass counts and timings, copies.
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
	if got := snap["driver.run.batches"]; got != float64(2*len(s.Chunks())) {
		t.Fatalf("run batches = %v, want %d", got, 2*len(s.Chunks()))
	}

	const k = 6
	st, err := runPrebuilt(context.Background(), chunkedStream(s, 32, 0), sums(k), 3)
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
	if got := snap["driver.broadcast.passes"]; got != 2*k {
		t.Fatalf("broadcast passes = %v, want %d (every copy's passes)", got, 2*k)
	}
	if got := snap["driver.broadcast.pass_skew_ns.count"]; got != 1 {
		t.Fatalf("broadcast pass_skew_ns count = %v, want 1 (once per run)", got)
	}
	if snap["driver.broadcast.items_per_sec"] <= 0 {
		t.Fatal("items_per_sec not set")
	}
}

// TestBroadcastTelemetryConcurrent has several pool runs reporting into
// one shared registry at once (the -listen scenario); totals must add up
// and, under -race, the shared handles must be clean. Every copy reads the
// stream itself, so reads and deliveries both come to runs × k × 2 passes.
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
			_, _ = runPrebuilt(context.Background(), s, sums(k), 2)
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	if want := float64(runs * k * 2 * s.Len()); snap["driver.broadcast.items_read"] != want {
		t.Fatalf("items_read = %v, want %v", snap["driver.broadcast.items_read"], want)
	}
	if want := float64(runs * k * 2 * s.Len()); snap["driver.broadcast.items_delivered"] != want {
		t.Fatalf("items_delivered = %v, want %v", snap["driver.broadcast.items_delivered"], want)
	}
	if want := float64(runs * k); snap["driver.broadcast.copies"] != want {
		t.Fatalf("copies = %v, want %v", snap["driver.broadcast.copies"], want)
	}
}
