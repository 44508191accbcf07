// Package stream implements the adjacency list streaming model of the paper:
// the input graph arrives as a sequence of ordered pairs (owner, neighbor);
// every edge {u,v} appears exactly twice, once in each endpoint's adjacency
// list; and all pairs sharing an owner are contiguous. Within a list, and
// across lists, the order is arbitrary (adversarial) unless a random order
// is requested explicitly.
//
// The package provides stream construction from a graph under controllable
// orders, validation of the model's promise, multi-pass drivers with
// item-at-a-time callbacks, and a text serialization.
//
// # Drivers
//
// [RunContext] drives one Algorithm over one stream, pass by pass. Every
// multi-copy run executes on one bounded worker pool, [RunPool], which
// holds at most as many copies as it has workers; [RunCopiesContext] and
// [RunBroadcastContext] put adjacency-list copies on it. Every copy walks
// the stream through the same chunk walker as RunContext, so per-copy
// results are identical to sequential runs.
//
// # Telemetry
//
// When the global registry of internal/telemetry is enabled, the drivers
// record per-pass wall times, items/sec and read counters under
// "driver.run.*" (one worker) and "driver.broadcast.*" (more than one).
// With telemetry disabled (the default) the instrumentation is nil-handle
// no-ops, off the per-item path entirely.
package stream
