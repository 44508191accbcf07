package baseline

import "adjstream/internal/stream"

// Snapshots of the baseline estimators a facade algorithm selects (see
// internal/stream/state.go for the contract and internal/core/state.go for
// the core counterparts).
//
// Extra payloads (fixed 64-bit little-endian fields, in order):
//
//	onepass-triangle  detections (N)
//	wedge-sampler     closed wedges, wedges formed
//	exact             cycle length

// Snapshot implements stream.Snapshotter.
func (o *OnePassTriangle) Snapshot() []byte {
	return stream.SnapshotOf("onepass-triangle", o, o.M(), o.found)
}

// Snapshot implements stream.Snapshotter.
func (w *WedgeSampler) Snapshot() []byte {
	return stream.SnapshotOf("wedge-sampler", w, w.M(), w.closed, w.formed)
}

// Snapshot implements stream.Snapshotter.
func (e *ExactStream) Snapshot() []byte {
	return stream.SnapshotOf("exact", e, e.M(), int64(e.cycleLen))
}
