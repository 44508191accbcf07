package flat

import (
	"math/rand/v2"
	"testing"
)

// Random puts and deletes, with keys drawn from a small range so probe runs
// collide and wrap, must agree with a map after every operation.
func TestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var tab Table
	ref := make(map[uint64]int32)
	for op := 0; op < 200000; op++ {
		key := rng.Uint64N(512)
		if op%3 == 0 {
			key <<= 32 // packed-edge shaped keys
		}
		switch rng.IntN(3) {
		case 0, 1:
			v := rng.Int32N(1 << 20)
			tab.Put(key, v)
			ref[key] = v
		case 2:
			tab.Delete(key)
			delete(ref, key)
		}
		if tab.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", op, tab.Len(), len(ref))
		}
		probe := rng.Uint64N(512)
		got, ok := tab.Get(probe)
		want, wok := ref[probe]
		if ok != wok || got != want {
			t.Fatalf("op %d: Get(%d) = %d,%v, want %d,%v", op, probe, got, ok, want, wok)
		}
	}
	for k, v := range ref {
		if got, ok := tab.Get(k); !ok || got != v {
			t.Fatalf("Get(%d) = %d,%v, want %d", k, got, ok, v)
		}
	}
	if keys := tab.AppendKeys(nil); len(keys) != len(ref) {
		t.Fatalf("AppendKeys returned %d keys, want %d", len(keys), len(ref))
	}
}

// Churn at a fixed occupancy reuses the slots it has: no tombstone
// accumulates, so the table never grows again.
func TestTableChurnDoesNotAllocate(t *testing.T) {
	var tab Table
	for k := uint64(0); k < 1000; k++ {
		tab.Put(k, int32(k))
	}
	next := uint64(1000)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 100; i++ {
			tab.Delete(next - 1000)
			tab.Put(next, 0)
			next++
		}
	})
	if allocs != 0 {
		t.Fatalf("churn allocated %v times per run, want 0", allocs)
	}
	if tab.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", tab.Len())
	}
}

// Reset empties the table and keeps its array: no key survives, and
// refilling it to the size it had allocates nothing.
func TestTableResetKeepsArray(t *testing.T) {
	var tab Table
	for k := uint64(0); k < 1000; k++ {
		tab.Put(k<<32, int32(k))
	}
	allocs := testing.AllocsPerRun(10, func() {
		tab.Reset()
		if tab.Len() != 0 {
			t.Fatalf("Len after Reset = %d", tab.Len())
		}
		if _, ok := tab.Get(5 << 32); ok {
			t.Fatal("key survived Reset")
		}
		for k := uint64(0); k < 1000; k++ {
			tab.Put(k<<32, int32(k))
		}
	})
	if allocs != 0 {
		t.Fatalf("Reset and refill allocated %v times per run, want 0", allocs)
	}
	if got, ok := tab.Get(999 << 32); !ok || got != 999 {
		t.Fatalf("Get after refill = %d,%v, want 999", got, ok)
	}
}
