package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"adjstream"
	"adjstream/internal/arbitrary"
	"adjstream/internal/graph"
	"adjstream/internal/sampling"
	"adjstream/internal/serve"
	"adjstream/internal/stats"
	"adjstream/internal/stream"
)

// probeReps is how many times each probe call is timed; rows report the
// median.
const probeReps = 3

// probeRow is one measurement of one layer called alone.
type probeRow struct {
	Layer  string  `json:"layer"`
	Metric string  `json:"metric"`
	Shape  string  `json:"shape"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
}

// probeTarget is one request shape to call down the stack with: its
// representative spec, the dataset it pinned, and the answer the service
// gave (nil for a shape the workload never sends).
type probeTarget struct {
	req    readReq
	ds     *serve.Dataset
	served *answer
}

// options maps an estimate-shaped wire request onto the facade's options,
// as the service does.
func options(r serve.EstimateRequest) adjstream.Options {
	return adjstream.Options{
		Model:      adjstream.Model(r.Model),
		Algorithm:  adjstream.Algorithm(r.Algorithm),
		SampleSize: r.SampleSize,
		SampleProb: r.SampleProb,
		PairCap:    r.PairCap,
		CycleLen:   r.CycleLen,
		Copies:     r.Copies,
		Confidence: r.Confidence,
		Parallel:   r.Parallel,
		Driver:     adjstream.Driver(r.Driver),
		Seed:       r.EffectiveSeed(),
	}
}

// copySeed is the facade's per-copy seed schedule.
func copySeed(seed uint64, i, k int) uint64 {
	if k == 1 {
		return seed
	}
	return seed + uint64(i)*0x9e3779b9 + 1
}

// estimateOn reruns a read through adjstream.EstimateContext on the pinned
// dataset: the reference every served answer must equal.
func estimateOn(ctx context.Context, ds *serve.Dataset, r readReq) (adjstream.Result, error) {
	spec := serve.DeriveEstimate(r.Kind, r.Spec)
	s, err := ds.Stream(spec.Order, spec.EffectiveSeed())
	if err != nil {
		return adjstream.Result{}, err
	}
	return adjstream.EstimateContext(ctx, s, options(spec))
}

// sameAnswer compares an answer with the reference bit for bit.
func sameAnswer(got answer, want adjstream.Result, ds *serve.Dataset) string {
	switch {
	case math.Float64bits(got.Estimate) != math.Float64bits(want.Estimate):
		return fmt.Sprintf("estimate %v, reference %v", got.Estimate, want.Estimate)
	case got.SpaceWords != want.SpaceWords:
		return fmt.Sprintf("space_words %d, reference %d", got.SpaceWords, want.SpaceWords)
	case got.Version != ds.Version():
		return fmt.Sprintf("graph_version %d, pinned %d", got.Version, ds.Version())
	case got.Fingerprint != ds.Fingerprint():
		return fmt.Sprintf("graph_fingerprint %016x, pinned %016x", got.Fingerprint, ds.Fingerprint())
	}
	return ""
}

// timed runs f probeReps times and returns the median wall time.
func timed(f func() error) (time.Duration, error) {
	ds := make([]time.Duration, probeReps)
	for i := range ds {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds[i] = time.Since(start)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2], nil
}

// allocs counts the heap allocations f makes.
func allocs(f func() error) (uint64, error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err := f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, err
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// probeShape calls down the stack for one shape and checks that every
// layer reproduces the served answer bit for bit.
func probeShape(ctx context.Context, t probeTarget) ([]probeRow, error) {
	spec := serve.DeriveEstimate(t.req.Kind, t.req.Spec)
	opts := options(spec)
	label := t.req.Shape
	var rows []probeRow
	row := func(layer, metric string, v float64, unit string) {
		rows = append(rows, probeRow{Layer: layer, Metric: metric, Shape: label, Value: v, Unit: unit})
	}
	fail := func(layer, msg string) error {
		return fmt.Errorf("probe %s (%s): %s", layer, label, msg)
	}
	s, err := t.ds.Stream(spec.Order, spec.EffectiveSeed())
	if err != nil {
		return nil, err
	}
	want := adjstream.Result{}
	if t.served != nil {
		want = adjstream.Result{Estimate: t.served.Estimate, SpaceWords: t.served.SpaceWords}
	}

	// The facade.
	var res adjstream.Result
	d, err := timed(func() error {
		var err error
		res, err = adjstream.EstimateContext(ctx, s, opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	if t.served != nil {
		if msg := sameAnswer(*t.served, res, t.ds); msg != "" {
			return nil, fail("adjstream", msg)
		}
	} else {
		want = res
	}
	row("adjstream", "adjstream.estimate_ms", ms(d), "ms")
	k := res.Copies
	same := func(est float64, sp int64) bool {
		return math.Float64bits(est) == math.Float64bits(want.Estimate) && sp == want.SpaceWords
	}

	if opts.Model == adjstream.ModelArbitrary {
		var as *adjstream.ArbitraryStream
		d, _ := timed(func() error { as = adjstream.NewArbitraryStream(s); return nil })
		row("adjstream", "adjstream.arbitrary_convert_ms", ms(d), "ms")
		if spec.Algorithm != string(adjstream.AlgoArbNearOptFourCycle) {
			return nil, fail("arbitrary", "only arb-nearopt-fourcycle has a per-copy probe")
		}
		ests := make([]float64, k)
		times := make([]float64, k)
		var sp int64
		var passes int
		for i := 0; i < k; i++ {
			e, err := arbitrary.NewNearOptFourCycle(spec.SampleProb, 0, copySeed(opts.Seed, i, k))
			if err != nil {
				return nil, err
			}
			start := time.Now()
			if err := arbitrary.RunContext(ctx, as, e); err != nil {
				return nil, err
			}
			times[i] = float64(time.Since(start))
			ests[i], passes = e.Estimate(), e.Passes()
			sp += e.SpaceWords()
		}
		if !same(stats.Median(ests), sp) {
			return nil, fail("arbitrary", "per-copy median differs from the served answer")
		}
		n, err := allocs(func() error {
			e, err := arbitrary.NewNearOptFourCycle(spec.SampleProb, 0, copySeed(opts.Seed, 0, k))
			if err != nil {
				return err
			}
			return arbitrary.RunContext(ctx, as, e)
		})
		if err != nil {
			return nil, err
		}
		edges := float64(passes) * float64(as.M())
		row("arbitrary", "arbitrary.ns_per_edge."+spec.Algorithm, stats.Median(times)/edges, "ns")
		row("arbitrary", "arbitrary.allocs_per_edge."+spec.Algorithm, float64(n)/edges, "count")
		return rows, nil
	}

	// One copy at a time through the sequential driver.
	build := func(i int) (adjstream.Estimator, error) {
		o := opts
		o.Copies, o.Confidence, o.Parallel, o.Driver = 1, 0, false, ""
		o.Seed = copySeed(opts.Seed, i, k)
		return adjstream.NewEstimator(o)
	}
	copies := make([]stream.Estimator, k)
	times := make([]float64, k)
	for i := range copies {
		e, err := build(i)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := stream.RunContext(ctx, s, e); err != nil {
			return nil, err
		}
		times[i] = float64(time.Since(start))
		copies[i] = e
	}
	if est, sp := stream.MedianOf(copies); !same(est, sp) {
		return nil, fail("core", "per-copy median differs from the served answer")
	}
	n, err := allocs(func() error {
		e, err := build(0)
		if err != nil {
			return err
		}
		return stream.RunContext(ctx, s, e)
	})
	if err != nil {
		return nil, err
	}
	items := float64(copies[0].Passes()) * float64(s.Len())
	oneCopy := stats.Median(times)
	row("core", "core.ns_per_item."+spec.Algorithm, oneCopy/items, "ns")
	row("core", "core.allocs_per_item."+spec.Algorithm, float64(n)/items, "count")

	// All k copies through the broadcast driver, which reproduces a
	// sequential run's answer too.
	if k > 1 {
		var st stream.DriverStats
		d, err := timed(func() error {
			cs := make([]stream.Estimator, k)
			for i := range cs {
				var err error
				if cs[i], err = build(i); err != nil {
					return err
				}
			}
			est, sp, dst, err := stream.MedianBroadcastContext(ctx, s, cs)
			if err == nil && !same(est, sp) {
				err = fail("stream", "broadcast median differs from the served answer")
			}
			st = dst
			return err
		})
		if err != nil {
			return nil, err
		}
		row("stream", "stream.broadcast_ms", ms(d), "ms")
		row("stream", "stream.parallel_efficiency", float64(k)*oneCopy/(float64(d)*float64(min(k, runtime.GOMAXPROCS(0)))), "ratio")
		row("stream", "stream.pass_skew_ms", float64(st.PassSkewNS)/1e6, "ms")
	}

	// The cluster's data path without the network: shard run, adjM
	// framing both ways, merge.
	if snaps, err := adjstream.EstimateShardContext(ctx, s, opts, 0, k); err == nil {
		var buf bytes.Buffer
		if err := adjstream.WriteSnapshotSet(&buf, 0, snaps); err != nil {
			return nil, err
		}
		size := buf.Len()
		_, back, err := adjstream.ReadSnapshotSet(&buf)
		if err != nil {
			return nil, err
		}
		var merged adjstream.Result
		d, err := timed(func() error {
			var err error
			merged, err = adjstream.MergeSnapshots(back)
			return err
		})
		if err != nil {
			return nil, err
		}
		if !same(merged.Estimate, merged.SpaceWords) {
			return nil, fail("adjstream", "merged snapshots differ from the served answer")
		}
		row("adjstream", "adjstream.merge_snapshots_ms", ms(d), "ms")
		row("cluster", "cluster.snapshot_bytes_per_req", float64(size), "bytes")
	}

	// The samplers the estimator drives, over the dataset's items.
	its := s.Items()
	if spec.SampleSize > 0 {
		var b *sampling.BottomK
		d, _ := timed(func() error {
			b = sampling.NewBottomK(spec.SampleSize, opts.Seed, nil)
			for _, it := range its {
				b.Offer(it.Owner, it.Nbr)
			}
			return nil
		})
		n, _ := allocs(func() error {
			b := sampling.NewBottomK(spec.SampleSize, opts.Seed, nil)
			for _, it := range its {
				b.Offer(it.Owner, it.Nbr)
			}
			return nil
		})
		row("sampling", "sampling.offer_ns.bottomk", float64(d)/float64(len(its)), "ns")
		row("sampling", "sampling.allocs_per_offer.bottomk", float64(n)/float64(len(its)), "count")
	}
	if spec.SampleProb > 0 {
		d, err := timed(func() error {
			f, err := sampling.NewFixedProb(spec.SampleProb, opts.Seed)
			if err != nil {
				return err
			}
			for _, it := range its {
				f.Offer(it.Owner, it.Nbr)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		row("sampling", "sampling.offer_ns.fixedprob", float64(d)/float64(len(its)), "ns")
	}
	return rows, nil
}

// probeGraph times the per-graph layers: the sorted and random stream
// builds on g, and the merge of one threshold's worth of recorded batches
// into g, whose fingerprint must equal the version the service published
// for them (wantFP, empty to skip the check).
func probeGraph(g *graph.Graph, seed uint64, batches []edgeBatch, wantFP string) ([]probeRow, error) {
	var rows []probeRow
	d, _ := timed(func() error { adjstream.SortedStream(g); return nil })
	rows = append(rows, probeRow{Layer: "stream", Metric: "stream.sorted_build_ms", Shape: "graph", Value: ms(d), Unit: "ms"})
	d, _ = timed(func() error { adjstream.RandomStream(g, seed); return nil })
	rows = append(rows, probeRow{Layer: "stream", Metric: "stream.random_order_ms", Shape: "graph", Value: ms(d), Unit: "ms"})

	var fresh []edgeBatch
	for _, b := range batches {
		if !b.Resend && len(fresh) < mergeEvery {
			fresh = append(fresh, b)
		}
	}
	var merged *graph.Graph
	var apply []time.Duration
	for rep := 0; rep < probeReps; rep++ {
		delta := adjstream.NewDelta(g)
		for _, b := range fresh {
			for _, p := range b.Req.Add {
				if err := delta.Add(graph.V(p[0]), graph.V(p[1])); err != nil {
					return nil, fmt.Errorf("probe graph: %w", err)
				}
			}
			for _, p := range b.Req.Remove {
				if err := delta.Remove(graph.V(p[0]), graph.V(p[1])); err != nil {
					return nil, fmt.Errorf("probe graph: %w", err)
				}
			}
		}
		start := time.Now()
		merged = delta.Apply()
		apply = append(apply, time.Since(start))
	}
	sort.Slice(apply, func(i, j int) bool { return apply[i] < apply[j] })
	rows = append(rows, probeRow{Layer: "graph", Metric: "graph.delta_apply_ms", Shape: fmt.Sprintf("%d batches", len(fresh)),
		Value: ms(apply[len(apply)/2]), Unit: "ms"})
	if wantFP != "" {
		if fp, err := fingerprintOf(merged); err != nil {
			return nil, err
		} else if fp != wantFP {
			return nil, fmt.Errorf("probe graph: applied delta has fingerprint %s, service published %s", fp, wantFP)
		}
	}
	return rows, nil
}

// fingerprintOf returns the service's content fingerprint of g.
func fingerprintOf(g *graph.Graph) (string, error) {
	ds, err := serve.NewCatalog().Add("g", g)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%016x", ds.Fingerprint()), nil
}
