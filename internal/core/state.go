package core

import (
	"encoding/binary"

	"adjstream/internal/stream"
)

// Snapshots of the core estimators (stream.Snapshotter; see
// internal/stream/state.go for the contract). A snapshot is a completed-run
// summary: estimate, space, passes and m, plus per-algorithm extras.
// Mid-pass reservoir and watcher state is deliberately not serialized — a
// merge only ever reads completed copies.
//
// Extra payloads (fixed 64-bit little-endian fields, in order):
//
//	twopass-triangle   pairs discovered (N)
//	threepass-triangle pairs collected (|Q|)
//	naive-twopass      detections (N)
//	adaptive-triangle  final sample capacity
//	twopass-fourcycle  wedges formed, wedges kept, Σ T_w

// appendI64 is the Extra field codec.
func appendI64(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

// Snapshot implements stream.Snapshotter.
func (t *TwoPassTriangle) Snapshot() []byte {
	return stream.SnapshotOf("twopass-triangle", t, t.M(), appendI64(nil, t.PairsDiscovered()))
}

// Snapshot implements stream.Snapshotter.
func (t *ThreePassTriangle) Snapshot() []byte {
	return stream.SnapshotOf("threepass-triangle", t, t.M(), appendI64(nil, int64(t.PairsCollected())))
}

// Snapshot implements stream.Snapshotter.
func (n *NaiveTwoPass) Snapshot() []byte {
	return stream.SnapshotOf("naive-twopass", n, n.M(), appendI64(nil, n.found))
}

// Snapshot implements stream.Snapshotter.
func (a *AdaptiveTwoPassTriangle) Snapshot() []byte {
	return stream.SnapshotOf("adaptive-triangle", a, a.M(), appendI64(nil, int64(a.FinalSample())))
}

// Snapshot implements stream.Snapshotter.
func (f *TwoPassFourCycle) Snapshot() []byte {
	extra := appendI64(nil, f.WedgesFormed())
	extra = appendI64(extra, int64(f.WedgesKept()))
	extra = appendI64(extra, f.CyclesThroughSampledWedges())
	return stream.SnapshotOf("twopass-fourcycle", f, f.M(), extra)
}
