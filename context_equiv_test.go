package adjstream

// Equivalence and cancellation tests for the context-aware API v2. The
// contract under test: with a context that never fires, EstimateContext,
// DistinguishContext, and LocalEstimateContext are bit-identical to their
// context-free wrappers for every algorithm, sequential and broadcast (the
// context checks live at chunk boundaries and must not perturb a single
// number); once a context fires, every entry point surfaces ErrCanceled,
// wraps the context's own error, and leaks no goroutines; and the retired
// "replay" driver is an option error on every path.

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"adjstream/internal/gen"
)

// ctxOpts returns a deterministic mid-size configuration for algo.
func ctxOpts(algo Algorithm) Options {
	o := Options{Algorithm: algo, Seed: 31}
	switch algo {
	case AlgoWedgeSampler:
		o.SampleProb = 0.5
		o.PairCap = 1 << 14
	case AlgoExact:
		o.CycleLen = 3
	default:
		o.SampleSize = 64
	}
	return o
}

// driverVariants enumerates the execution shapes every algorithm must agree
// across — sequential, and parallel median-of-5 on the broadcast driver —
// plus the retired "replay" driver, which every entry point must reject
// with ErrInvalidOptions before running anything.
func driverVariants(o Options) map[string]Options {
	seq := o
	broadcast, replay := o, o
	broadcast.Copies, broadcast.Parallel, broadcast.Driver = 5, true, DriverBroadcast
	replay.Copies, replay.Parallel, replay.Driver = 5, true, "replay"
	return map[string]Options{"sequential": seq, "broadcast": broadcast, "replay": replay}
}

// withoutSkew zeroes the one wall-clock field of a Result, the per-pass
// worker skew, so seed-determined fields can be compared exactly.
func withoutSkew(r Result) Result {
	r.DriverStats.PassSkewNS = 0
	return r
}

func equivStream(t *testing.T) *Stream {
	t.Helper()
	g, err := gen.ErdosRenyi(150, 0.08, 3)
	if err != nil {
		t.Fatal(err)
	}
	return RandomStream(g, 7)
}

// waitGoroutines waits for the goroutine count to come back to (at most)
// base, tolerating runtime background noise via a deadline.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.Gosched()
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d > %d baseline", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEstimateContextNeverCancelledIsBitIdentical runs every algorithm ×
// every driver shape under a live (cancellable but never cancelled)
// context and requires results bit-identical to the wrapper path, which
// runs under a context that can never fire. Only the wall-clock
// DriverStats.PassSkewNS may differ.
func TestEstimateContextNeverCancelledIsBitIdentical(t *testing.T) {
	s := equivStream(t)
	for _, algo := range Algorithms() {
		for shape, opts := range driverVariants(ctxOpts(algo)) {
			t.Run(string(algo)+"/"+shape, func(t *testing.T) {
				want, werr := Estimate(s, opts)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				got, gerr := EstimateContext(ctx, s, opts)
				if shape == "replay" {
					if !errors.Is(werr, ErrInvalidOptions) || !errors.Is(gerr, ErrInvalidOptions) {
						t.Fatalf("retired driver: Estimate err = %v, EstimateContext err = %v, want ErrInvalidOptions", werr, gerr)
					}
					return
				}
				if werr != nil || gerr != nil {
					t.Fatalf("Estimate: %v; EstimateContext: %v", werr, gerr)
				}
				if withoutSkew(got) != withoutSkew(want) {
					t.Errorf("EstimateContext %+v != Estimate %+v", got, want)
				}
			})
		}
	}
}

// TestEstimateContextCanceledBeforeStart requires every algorithm × driver
// shape to fail with ErrCanceled (wrapping context.Canceled) when the
// context is already dead, without leaking goroutines. The retired replay
// driver fails validation first, with ErrInvalidOptions.
func TestEstimateContextCanceledBeforeStart(t *testing.T) {
	s := equivStream(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algo := range Algorithms() {
		for shape, opts := range driverVariants(ctxOpts(algo)) {
			t.Run(string(algo)+"/"+shape, func(t *testing.T) {
				base := runtime.NumGoroutine()
				_, err := EstimateContext(ctx, s, opts)
				if shape == "replay" {
					if !errors.Is(err, ErrInvalidOptions) || errors.Is(err, ErrCanceled) {
						t.Fatalf("err = %v, want ErrInvalidOptions before any cancellation check", err)
					}
					return
				}
				if !errors.Is(err, ErrCanceled) {
					t.Fatalf("err = %v, want ErrCanceled", err)
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v does not wrap context.Canceled", err)
				}
				waitGoroutines(t, base)
			})
		}
	}
}

// TestEstimateContextDeadlineMidRun cancels a parallel broadcast run by
// deadline while it is (very likely) mid-pass: on cancellation the error
// chain must carry both sentinels and all driver goroutines must drain.
func TestEstimateContextDeadlineMidRun(t *testing.T) {
	g, err := gen.ErdosRenyi(400, 0.05, 9)
	if err != nil {
		t.Fatal(err)
	}
	s := SortedStream(g)
	opts := ctxOpts(AlgoTwoPassTriangle)
	opts.Copies, opts.Parallel, opts.Driver = 8, true, DriverBroadcast
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	if _, err := EstimateContext(ctx, s, opts); err != nil {
		// The run may rarely finish inside the deadline; when it does
		// not, the chain must be fully typed.
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want ErrCanceled wrapping DeadlineExceeded", err)
		}
	}
	waitGoroutines(t, base)
}

// TestDistinguishDriverPathEquivalence checks the decision problem's
// routing: it honors Copies/Parallel/Driver, the broadcast and sequential
// median runs agree bit-for-bit, and the context-free wrapper matches the
// single-copy path.
func TestDistinguishDriverPathEquivalence(t *testing.T) {
	s := equivStream(t)
	for _, cycleLen := range []int{3, 4, 5} {
		opts := Options{SampleSize: 64, Copies: 5, Parallel: true, Seed: 17}
		opts.Driver = DriverBroadcast
		if cycleLen >= 5 {
			opts.SampleSize = 0 // exact counter takes no budget
		}
		fb, rb, err := DistinguishContext(context.Background(), s, cycleLen, opts)
		if err != nil {
			t.Fatalf("len %d broadcast: %v", cycleLen, err)
		}
		opts.Parallel, opts.Driver = false, ""
		fs, rs, err := DistinguishContext(context.Background(), s, cycleLen, opts)
		if err != nil {
			t.Fatalf("len %d sequential: %v", cycleLen, err)
		}
		if fb != fs || rb.Estimate != rs.Estimate || rb.SpaceWords != rs.SpaceWords || rb.Passes != rs.Passes {
			t.Errorf("len %d: broadcast (%v %+v) != sequential (%v %+v)", cycleLen, fb, rb, fs, rs)
		}
		if rb.Copies != 5 {
			t.Errorf("len %d: Copies = %d, want 5 (driver path not honored)", cycleLen, rb.Copies)
		}

		// The legacy wrapper is exactly the single-copy context path.
		wf, wr, err := Distinguish(s, cycleLen, 64, 17)
		if err != nil {
			t.Fatalf("len %d wrapper: %v", cycleLen, err)
		}
		cf, cr, err := DistinguishContext(context.Background(), s, cycleLen, Options{SampleSize: 64, Seed: 17})
		if err != nil {
			t.Fatalf("len %d context single: %v", cycleLen, err)
		}
		if wf != cf || wr != cr {
			t.Errorf("len %d: Distinguish (%v %+v) != DistinguishContext (%v %+v)", cycleLen, wf, wr, cf, cr)
		}
	}
}

// TestLocalEstimateDriverPathEquivalence checks the same routing for the
// local (per-vertex) estimator: the broadcast driver, named or left empty,
// and the sequential path agree on every vertex, and the wrapper matches
// the context path.
func TestLocalEstimateDriverPathEquivalence(t *testing.T) {
	s := equivStream(t)
	const p = 0.5
	base := Options{Copies: 5, Seed: 23}
	bcast, unnamed := base, base
	bcast.Parallel, bcast.Driver = true, DriverBroadcast
	unnamed.Parallel = true

	counts := make(map[string]map[V]float64)
	results := make(map[string]Result)
	for shape, opts := range map[string]Options{"sequential": base, "broadcast": bcast, "unnamed": unnamed} {
		m, res, err := LocalEstimateContext(context.Background(), s, p, opts)
		if err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		counts[shape], results[shape] = m, res
	}
	for _, shape := range []string{"broadcast", "unnamed"} {
		if len(counts[shape]) != len(counts["sequential"]) {
			t.Fatalf("%s: %d vertices != sequential %d", shape, len(counts[shape]), len(counts["sequential"]))
		}
		for v, want := range counts["sequential"] {
			if got := counts[shape][v]; got != want {
				t.Errorf("%s: vertex %d = %v, want %v", shape, v, got, want)
			}
		}
		if results[shape].Estimate != results["sequential"].Estimate ||
			results[shape].SpaceWords != results["sequential"].SpaceWords {
			t.Errorf("%s result %+v != sequential %+v", shape, results[shape], results["sequential"])
		}
	}

	wm, wr, err := LocalEstimate(s, p, 23)
	if err != nil {
		t.Fatalf("LocalEstimate: %v", err)
	}
	cm, cr, err := LocalEstimateContext(context.Background(), s, p, Options{Seed: 23})
	if err != nil {
		t.Fatalf("LocalEstimateContext: %v", err)
	}
	if wr != cr || len(wm) != len(cm) {
		t.Fatalf("wrapper (%d vertices, %+v) != context (%d vertices, %+v)", len(wm), wr, len(cm), cr)
	}
	for v, want := range cm {
		if wm[v] != want {
			t.Errorf("vertex %d: wrapper %v != context %v", v, wm[v], want)
		}
	}
}

// TestSentinelErrors pins the exported error taxonomy: Validate and the
// entry points agree, and everything is matchable with errors.Is.
func TestSentinelErrors(t *testing.T) {
	s := equivStream(t)
	cases := []struct {
		name string
		opts Options
		want error
	}{
		{"empty algorithm", Options{}, ErrInvalidOptions},
		{"unknown algorithm", Options{Algorithm: "nope"}, ErrUnknownAlgorithm},
		{"unknown driver", Options{Algorithm: AlgoExact, Driver: "carrier-pigeon"}, ErrInvalidOptions},
		{"retired replay driver", Options{Algorithm: AlgoExact, Driver: "replay"}, ErrInvalidOptions},
		{"retired push driver", Options{Algorithm: AlgoExact, Driver: "push-broadcast"}, ErrInvalidOptions},
		{"negative copies", Options{Algorithm: AlgoExact, Copies: -1}, ErrInvalidOptions},
		{"copies and confidence", Options{Algorithm: AlgoExact, Copies: 3, Confidence: 0.9}, ErrInvalidOptions},
		{"confidence out of range", Options{Algorithm: AlgoExact, Confidence: 1.5}, ErrInvalidOptions},
		{"negative sample size", Options{Algorithm: AlgoNaiveTwoPass, SampleSize: -1}, ErrInvalidOptions},
		{"sample prob out of range", Options{Algorithm: AlgoWedgeSampler, SampleProb: 2}, ErrInvalidOptions},
		{"cycle length too short", Options{Algorithm: AlgoExact, CycleLen: 2}, ErrInvalidOptions},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.opts.Validate(); !errors.Is(err, tc.want) {
				t.Errorf("Validate() = %v, want %v", err, tc.want)
			}
			if _, err := Estimate(s, tc.opts); !errors.Is(err, tc.want) {
				t.Errorf("Estimate() = %v, want %v", err, tc.want)
			}
			if _, err := NewEstimator(tc.opts); !errors.Is(err, tc.want) {
				t.Errorf("NewEstimator() = %v, want %v", err, tc.want)
			}
		})
	}

	if _, err := Estimate(s, ctxOpts(AlgoExact)); err != nil {
		t.Fatalf("valid options: %v", err)
	}
	if _, _, err := DistinguishContext(context.Background(), s, 2, Options{}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("cycleLen 2: %v, want ErrInvalidOptions", err)
	}
	if _, _, err := DistinguishContext(context.Background(), s, 3, Options{Algorithm: AlgoExact}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("Distinguish with Algorithm set: %v, want ErrInvalidOptions", err)
	}
	if _, _, err := LocalEstimateContext(context.Background(), s, 0.5, Options{SampleSize: 9}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("LocalEstimate with SampleSize set: %v, want ErrInvalidOptions", err)
	}
}
