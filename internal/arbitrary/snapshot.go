package arbitrary

import "adjstream/internal/stream"

// Snapshots of the arbitrary-order estimators (stream.Snapshotter), tagged
// with the facade's algorithm name; m is the edge count of pass one.
//
// Extra payloads (fixed 64-bit little-endian fields, in order):
//
//	arb-twopass-wedge       wedges formed, wedges closed
//	arb-buriol              instances, instances closed
//	arb-threepass-fourcycle pairs tracked
//	arb-nearopt-fourcycle   pairs tracked

// Snapshot implements stream.Snapshotter.
func (t *TwoPassWedge) Snapshot() []byte {
	return stream.SnapshotOf("arb-twopass-wedge", t, t.m, t.wedges, t.closed)
}

// Snapshot implements stream.Snapshotter.
func (b *BuriolSampler) Snapshot() []byte {
	return stream.SnapshotOf("arb-buriol", b, b.m, int64(len(b.inst)), b.closed())
}

// Snapshot implements stream.Snapshotter.
func (t *ThreePassFourCycle) Snapshot() []byte {
	return stream.SnapshotOf("arb-threepass-fourcycle", t, t.m, t.PairsTracked())
}

// Snapshot implements stream.Snapshotter.
func (n *NearOptFourCycle) Snapshot() []byte {
	return stream.SnapshotOf("arb-nearopt-fourcycle", n, n.m, n.PairsTracked())
}
