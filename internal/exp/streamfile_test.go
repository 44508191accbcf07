package exp

import (
	"path/filepath"
	"testing"

	"adjstream/internal/core"
	"adjstream/internal/gen"
	"adjstream/internal/stream"
)

// TestStreamFromFileMatchesInMemory replays the T1.R9 estimator from a
// columnar stream file and checks the estimate is bit-identical to the
// in-memory stream it was captured from — the property that makes file
// reruns interchangeable with generated runs.
func TestStreamFromFileMatchesInMemory(t *testing.T) {
	g, err := gen.BipartiteButterflies(60, 12, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := stream.Random(g, 1)
	path := filepath.Join(t.TempDir(), "r9.adjc")
	if err := stream.WriteFile(path, s); err != nil {
		t.Fatal(err)
	}
	loaded, closeFn, err := StreamFromFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()
	if loaded.Len() != s.Len() || loaded.M() != s.M() {
		t.Fatalf("loaded stream (len=%d, m=%d) != captured (len=%d, m=%d)",
			loaded.Len(), loaded.M(), s.Len(), s.M())
	}
	mk := func() stream.Estimator {
		alg, err := core.NewTwoPassFourCycle(core.FourCycleConfig{SampleSize: 64, WedgeCap: 256, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return alg
	}
	mem := mk()
	file := mk()
	runCopies(s, []stream.Estimator{mem})
	runCopies(loaded, []stream.Estimator{file})
	if mem.Estimate() != file.Estimate() {
		t.Fatalf("file replay estimate %v != in-memory %v", file.Estimate(), mem.Estimate())
	}
	if mem.SpaceWords() != file.SpaceWords() {
		t.Fatalf("file replay space %d != in-memory %d", file.SpaceWords(), mem.SpaceWords())
	}
}
