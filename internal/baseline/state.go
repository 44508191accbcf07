package baseline

import (
	"encoding/binary"

	"adjstream/internal/stream"
)

// Snapshots of the baseline estimators a facade algorithm selects (see
// internal/stream/state.go for the contract and internal/core/state.go for
// the core counterparts).
//
// Extra payloads (fixed 64-bit little-endian fields, in order):
//
//	onepass-triangle  detections (N)
//	wedge-sampler     closed wedges, wedges formed
//	exact             cycle length

// appendU64 is the Extra field codec.
func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// Snapshot implements stream.Snapshotter.
func (o *OnePassTriangle) Snapshot() []byte {
	return stream.SnapshotOf("onepass-triangle", o, o.M(), appendU64(nil, uint64(o.found)))
}

// Snapshot implements stream.Snapshotter.
func (w *WedgeSampler) Snapshot() []byte {
	extra := appendU64(nil, uint64(w.closed))
	extra = appendU64(extra, uint64(w.formed))
	return stream.SnapshotOf("wedge-sampler", w, w.M(), extra)
}

// Snapshot implements stream.Snapshotter.
func (e *ExactStream) Snapshot() []byte {
	return stream.SnapshotOf("exact", e, e.M(), appendU64(nil, uint64(e.cycleLen)))
}
