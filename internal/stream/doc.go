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
// [RunContext] drives one Algorithm over one stream, pass by pass.
// Multi-copy runs (median amplification, trials) use [RunBroadcastContext],
// which reads the stream once per pass and hands every chunk to each copy
// in turn; per-copy results are identical to sequential runs, and the
// [DriverStats] it returns quantify the read reduction. Both drivers turn
// chunks into callbacks through the same walker.
//
// # Telemetry
//
// When the global registry of internal/telemetry is enabled, both drivers
// record per-pass wall times, items/sec and delivery counters under
// "driver.run.*" and "driver.broadcast.*", plus the broadcast driver's
// per-pass worker skew. With telemetry disabled (the default) the
// instrumentation is nil-handle no-ops, off the per-item path entirely.
package stream
