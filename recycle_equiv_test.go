package adjstream

// Copy recycling under concurrency. EstimateContext and
// EstimateShardContext hand their copies' state back to the core
// estimators' pools once the results are read, and later copies of any run
// build on it. Mixed concurrent calls — full runs and shard ranges,
// sequential and broadcast, of every recycled algorithm at several budgets
// and sampler kinds, interleaved with canceled runs whose copies are
// dropped — must each answer exactly what the same call answered before
// any state was shared. Run it with -race as well.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"adjstream/internal/gen"
)

func TestRecycledCopiesConcurrentCallsMatchSequential(t *testing.T) {
	g, err := gen.ErdosRenyi(120, 0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	sorted, random := SortedStream(g), RandomStream(g, 7)
	var specs []Options
	for i, algo := range []Algorithm{
		AlgoTwoPassTriangle, AlgoThreePassTriangle, AlgoNaiveTwoPass,
		AlgoAdaptiveTriangle, AlgoTwoPassFourCycle,
	} {
		for j, o := range []Options{
			{SampleSize: 40, PairCap: 32, Copies: 5},
			{SampleProb: 0.4, Copies: 3, Parallel: true},
			{SampleSize: 300, PairCap: 8, Copies: 4, Parallel: true},
		} {
			if algo == AlgoAdaptiveTriangle && o.SampleProb > 0 {
				o.SampleSize, o.SampleProb = 200, 0
			}
			o.Algorithm, o.Seed = algo, uint64(10*i+j+1)
			specs = append(specs, o)
		}
	}
	streams := []*Stream{sorted, random}
	type call struct {
		opts   Options
		s      *Stream
		lo, hi int // a shard call when hi > 0
	}
	var calls []call
	for i, o := range specs {
		s := streams[i%2]
		calls = append(calls, call{opts: o, s: s})
		calls = append(calls, call{opts: o, s: s, lo: 1, hi: o.Copies})
	}
	answer := func(c call) (string, error) {
		if c.hi == 0 {
			res, err := EstimateContext(context.Background(), c.s, c.opts)
			res.DriverStats.PassSkewNS = 0
			return fmt.Sprintf("%+v", res), err
		}
		snaps, err := EstimateShardContext(context.Background(), c.s, c.opts, c.lo, c.hi)
		return string(bytes.Join(snaps, []byte{0})), err
	}
	want := make([]string, len(calls))
	for i, c := range calls {
		ans, err := answer(c)
		if err != nil {
			t.Fatalf("call %d (%+v): %v", i, c.opts, err)
		}
		want[i] = ans
	}

	const workers, rounds = 4, 3
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds*len(calls))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range calls {
					i := (k*7 + w*5 + r*3) % len(calls)
					if k%5 == w {
						// A canceled run: its copies are dropped, never recycled.
						ctx, cancel := context.WithCancel(context.Background())
						cancel()
						if _, err := EstimateContext(ctx, calls[i].s, calls[i].opts); !errors.Is(err, ErrCanceled) {
							errs <- fmt.Errorf("canceled call %d: err = %v, want ErrCanceled", i, err)
						}
					}
					got, err := answer(calls[i])
					if err != nil {
						errs <- fmt.Errorf("call %d: %v", i, err)
					} else if got != want[i] {
						errs <- fmt.Errorf("call %d (%+v, range [%d,%d)): concurrent answer differs from the sequential one",
							i, calls[i].opts, calls[i].lo, calls[i].hi)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
