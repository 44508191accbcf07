package adjstream

// Wire-format pin: the "adjM" bytes of a fixed-seed 3-copy shard run of
// every adjacency-list algorithm, sequential and broadcast, must match
// testdata/shard_k3.golden byte for byte. Saved shard files and replicas of
// other versions merge only while these bytes stay put.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"adjstream/internal/gen"
	"adjstream/internal/stream"
)

func TestShardSnapshotBytesGolden(t *testing.T) {
	f, err := os.Open("testdata/shard_k3.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := make(map[Algorithm][]byte)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		algo, hexBytes, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		b, err := hex.DecodeString(hexBytes)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		golden[Algorithm(algo)] = b
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	g, err := gen.ErdosRenyi(60, 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := stream.Random(g, 4)
	for _, algo := range Algorithms() {
		want, ok := golden[algo]
		if !ok {
			t.Errorf("%s: no golden bytes", algo)
			continue
		}
		for _, parallel := range []bool{false, true} {
			opts := Options{Algorithm: algo, PairCap: 256, Copies: 3, Parallel: parallel, Seed: 13}
			if algo != AlgoExact {
				opts.SampleSize = 48
			}
			snaps, err := EstimateShardContext(context.Background(), s, opts, 0, 3)
			if err != nil {
				t.Fatalf("%s: %v", algo, err)
			}
			var buf bytes.Buffer
			if err := WriteSnapshotSet(&buf, 0, snaps); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s (parallel=%v): adjM bytes\n got %x\nwant %x", algo, parallel, buf.Bytes(), want)
			}
		}
	}
}
