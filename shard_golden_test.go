package adjstream

// Wire-format pin: the "adjM" bytes of a fixed-seed 3-copy shard run of
// every adjacency-list algorithm, sequential and broadcast, must match the
// golden files byte for byte. Saved shard files and replicas of other
// versions merge only while these bytes stay put. The two files run the
// same graph and seed at two pair caps: at 256 neither the pair reservoir
// nor the wedge reservoir fills, and at 32 both overflow, so reservoir
// eviction and the state it retracts are pinned as well.

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

// readGolden parses a golden file of "algorithm hex-bytes" lines.
func readGolden(t *testing.T, path string) map[Algorithm][]byte {
	t.Helper()
	f, err := os.Open(path)
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
			t.Fatalf("%s: malformed golden line %q", path, sc.Text())
		}
		b, err := hex.DecodeString(hexBytes)
		if err != nil {
			t.Fatalf("%s: %s: %v", path, algo, err)
		}
		golden[Algorithm(algo)] = b
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return golden
}

func TestShardSnapshotBytesGolden(t *testing.T) {
	g, err := gen.ErdosRenyi(60, 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := stream.Random(g, 4)
	for _, tc := range []struct {
		path    string
		pairCap int
	}{
		{"testdata/shard_k3.golden", 256},
		{"testdata/shard_k3_cap32.golden", 32},
	} {
		golden := readGolden(t, tc.path)
		for _, algo := range Algorithms() {
			want, ok := golden[algo]
			if !ok {
				t.Errorf("%s: %s: no golden bytes", tc.path, algo)
				continue
			}
			for _, parallel := range []bool{false, true} {
				opts := Options{Algorithm: algo, PairCap: tc.pairCap, Copies: 3, Parallel: parallel, Seed: 13}
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
					t.Errorf("%s: %s (parallel=%v): adjM bytes\n got %x\nwant %x", tc.path, algo, parallel, buf.Bytes(), want)
				}
			}
		}
	}
}
