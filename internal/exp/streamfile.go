package exp

// Stream-file loading for experiment reruns. Experiments normally generate
// their workloads in-process, which couples a rerun to the generator code
// and pays graph construction plus stream shuffling on every trial batch.
// StreamFromFile instead replays a stream captured on disk — for the
// mmap-able columnar format the replay touches the mapped pages directly,
// so even multi-gigabyte workloads load in O(1). The capture for, e.g.,
// the T1.R9 workload is one genstream call:
//
//	genstream -kind butterflies -n 300 -side 60 -k 12 -seed 1 \
//	    -format colstream -out r9.adjc
//
// and StreamFromFile("r9.adjc") then feeds the usual runCopies/runOne
// drivers. Because the file pins the exact item order, reruns across
// machines and sessions see bit-identical streams.

import (
	"adjstream/internal/stream"
)

// StreamFromFile opens an adjacency-list stream file in any supported
// format (text or "adjC" columnar — the latter memory-mapped). The returned
// closer must be called when the stream is no longer needed; it is never
// nil.
func StreamFromFile(path string) (*stream.Stream, func() error, error) {
	return stream.OpenFile(path)
}
