package stream

// The "adjM" decoder reads bytes a replica sent over the network or a file
// another process wrote, so its header sizes are untrusted: a hostile body
// must cost an error, never an allocation its own bytes do not pay for.

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// snapshotSetHeader returns an "adjM" header declaring n records.
func snapshotSetHeader(n uint32) []byte {
	b := append([]byte(snapshotSetMagic), 0, 0, 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(b[4:], snapshotSetVersion)
	binary.LittleEndian.PutUint32(b[8:], n)
	return b
}

func TestReadSnapshotSetRejectsHostileSizes(t *testing.T) {
	valid, err := EncodeSnapshotSet(0, [][]byte{(&CopyState{Algo: "exact", Estimate: 3, Passes: 1, M: 9}).Encode()})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadSnapshotSet(bytes.NewReader(valid)); err != nil {
		t.Fatalf("control: %v", err)
	}
	hugePayload := binary.LittleEndian.AppendUint32(snapshotSetHeader(1), 0)
	hugePayload = binary.LittleEndian.AppendUint32(hugePayload, 1<<32-1)
	cases := map[string][]byte{
		"2^32-1 records in a 12-byte body": snapshotSetHeader(1<<32 - 1),
		"4 GiB payload in a 20-byte body":  hugePayload,
		"payload one byte short":           valid[:len(valid)-1],
	}
	for name, body := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := ReadSnapshotSet(bytes.NewReader(body))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded without error", name)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Errorf("%s: decoding allocated %d bytes", name, alloc)
		}
	}
}

// FuzzReadSnapshotSet: decoding arbitrary bytes and merging whatever
// decodes must never panic, and a decoded set pairs every index with a
// payload.
func FuzzReadSnapshotSet(f *testing.F) {
	valid, err := EncodeSnapshotSet(0, [][]byte{
		(&CopyState{Algo: "twopass-triangle", Estimate: 7, SpaceWords: 40, Passes: 2, M: 30, Extra: []byte{1, 0, 0, 0, 0, 0, 0, 0}}).Encode(),
		(&CopyState{Algo: "twopass-triangle", Estimate: 9, SpaceWords: 44, Passes: 2, M: 30}).Encode(),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(snapshotSetHeader(0))
	f.Add(snapshotSetHeader(1<<32 - 1))
	f.Add(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(snapshotSetHeader(1), 0), 1<<32-1))
	f.Add([]byte("adjM"))
	f.Fuzz(func(t *testing.T, in []byte) {
		idx, snaps, err := ReadSnapshotSet(bytes.NewReader(in))
		if err != nil {
			return
		}
		if len(idx) != len(snaps) {
			t.Fatalf("%d indices for %d payloads", len(idx), len(snaps))
		}
		_, _ = MergeMedianSet(snaps)
	})
}
