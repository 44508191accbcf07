package core

import "adjstream/internal/stream"

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

// Snapshot implements stream.Snapshotter.
func (t *TwoPassTriangle) Snapshot() []byte {
	return stream.SnapshotOf("twopass-triangle", t, t.M(), t.PairsDiscovered())
}

// Snapshot implements stream.Snapshotter.
func (t *ThreePassTriangle) Snapshot() []byte {
	return stream.SnapshotOf("threepass-triangle", t, t.M(), int64(t.PairsCollected()))
}

// Snapshot implements stream.Snapshotter.
func (n *NaiveTwoPass) Snapshot() []byte {
	return stream.SnapshotOf("naive-twopass", n, n.M(), n.found)
}

// Snapshot implements stream.Snapshotter.
func (a *AdaptiveTwoPassTriangle) Snapshot() []byte {
	return stream.SnapshotOf("adaptive-triangle", a, a.M(), int64(a.FinalSample()))
}

// Snapshot implements stream.Snapshotter.
func (f *TwoPassFourCycle) Snapshot() []byte {
	return stream.SnapshotOf("twopass-fourcycle", f, f.M(), f.WedgesFormed(), int64(f.WedgesKept()), f.CyclesThroughSampledWedges())
}
