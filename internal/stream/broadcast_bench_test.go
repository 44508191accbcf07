package stream

// Benchmarks of the drivers at k independent copies over the same stream.
// The quantity at stake is stream-item reads: replaying the stream per copy
// would perform k·passes·2m, broadcast performs passes·2m. Reported
// metrics:
//
//	reads/op — stream items read from the underlying stream per run
//	read-x   — per-copy replay reads (= deliveries) divided by broadcast reads

import (
	"context"
	"testing"

	"adjstream/internal/gen"
	"adjstream/internal/graph"
)

func benchStream(b *testing.B) *Stream {
	b.Helper()
	g, err := gen.ErdosRenyi(500, 0.05, 9)
	if err != nil {
		b.Fatal(err)
	}
	return Random(g, 3)
}

// benchEstimator is the benchmark workload: an order-sensitive rolling hash
// with a per-item cost small enough that driver overhead dominates — what
// these benchmarks are meant to measure (sumEstimator's tracer would spend
// the budget on fmt.Sprintf instead).
type benchEstimator struct {
	passes int
	acc    uint64
}

func (e *benchEstimator) Passes() int         { return e.passes }
func (e *benchEstimator) StartPass(p int)     {}
func (e *benchEstimator) StartList(v graph.V) {}
func (e *benchEstimator) EndList(v graph.V)   {}
func (e *benchEstimator) EndPass(p int)       {}
func (e *benchEstimator) Estimate() float64   { return float64(e.acc) }
func (e *benchEstimator) SpaceWords() int64   { return 1 }
func (e *benchEstimator) Edge(o, n graph.V) {
	e.acc = e.acc*31 + uint64(o)*2 + uint64(n)
}

func benchCopies(k int) []Estimator {
	ests := make([]Estimator, k)
	for i := range ests {
		ests[i] = &benchEstimator{passes: 2}
	}
	return ests
}

func benchmarkBroadcast(b *testing.B, k int) {
	s := benchStream(b)
	b.ResetTimer()
	var reads, delivered int64
	for i := 0; i < b.N; i++ {
		st, err := RunBroadcastContext(context.Background(), s, benchCopies(k))
		if err != nil {
			b.Fatal(err)
		}
		reads += st.StreamItemsRead
		delivered += st.ItemsDelivered
	}
	b.ReportMetric(float64(reads)/float64(b.N), "reads/op")
	b.ReportMetric(float64(delivered)/float64(reads), "read-x")
}

func BenchmarkBroadcastK8(b *testing.B)   { benchmarkBroadcast(b, 8) }
func BenchmarkBroadcastK32(b *testing.B)  { benchmarkBroadcast(b, 32) }
func BenchmarkBroadcastK128(b *testing.B) { benchmarkBroadcast(b, 128) }

// BenchmarkRunBatchPath measures the sequential driver on one estimator:
// whole chunks through the chunk walker, one interface call per callback.
func BenchmarkRunBatchPath(b *testing.B) {
	s := benchStream(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(s, &benchEstimator{passes: 2})
	}
}
