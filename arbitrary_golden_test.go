package adjstream

// Roster pin for the arbitrary-order model: the estimate bits and space
// words of a fixed-seed 3-copy run of every arbitrary-order algorithm,
// sequential and parallel, must match the golden file. The two graphs are
// the shard golden's ER(60, 0.2) and a Chung–Lu graph whose hub has degree
// 45. At rate 0.5 many diagonal pairs gain more than one sampled wedge, and
// the 4-cycle estimators orient pairs both ways: by vertex id where the
// sampled degrees favour the smaller id, against it where they do not.

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"adjstream/internal/gen"
	"adjstream/internal/stream"
)

// readArbitraryGolden parses "graph algorithm estimate-bits space-words"
// lines into a map keyed on "graph algorithm".
func readArbitraryGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 4 {
			t.Fatalf("%s: malformed golden line %q", path, sc.Text())
		}
		golden[fields[0]+" "+fields[1]] = fields[2] + " " + fields[3]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return golden
}

func TestArbitraryEstimateGolden(t *testing.T) {
	const path = "testdata/arbitrary_k3.golden"
	er, err := gen.ErdosRenyi(60, 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := gen.ChungLu(200, 2.2, 60, 7)
	if err != nil {
		t.Fatal(err)
	}
	golden := readArbitraryGolden(t, path)
	for _, gc := range []struct {
		name string
		s    *stream.Stream
	}{{"er60", stream.Random(er, 4)}, {"cl200", stream.Random(cl, 4)}} {
		for _, algo := range AlgorithmsForModel(ModelArbitrary) {
			key := gc.name + " " + string(algo)
			want, ok := golden[key]
			if !ok {
				t.Errorf("%s: %s: no golden line", path, key)
				continue
			}
			for _, parallel := range []bool{false, true} {
				opts := Options{Model: ModelArbitrary, Algorithm: algo, Copies: 3, Parallel: parallel, Seed: 13}
				if algo == AlgoArbBuriol {
					opts.SampleSize = 512
				} else {
					opts.SampleProb = 0.5
				}
				res, err := EstimateContext(context.Background(), gc.s, opts)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				got := fmt.Sprintf("%016x %d", math.Float64bits(res.Estimate), res.SpaceWords)
				if got != want {
					t.Errorf("%s (parallel=%v): got line\n%s %s\nwant\n%s %s", path, parallel, key, got, key, want)
				}
			}
		}
	}
}
