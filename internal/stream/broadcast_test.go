package stream

// Tests for the chunk walker and the copy pool: trace and estimate
// equivalence against sequential Run across copy counts, worker counts and
// fabricated chunk geometries (empty chunks, single-item lists on chunk
// edges, lists spanning chunks, final open lists), the Workers clamp, and
// the driver counters.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"adjstream/internal/graph"
)

// tracer records the full callback sequence it observes, so pool runs can
// be compared event-for-event against sequential Run. It never calls into
// testing.T: the pool invokes it from worker goroutines.
type tracer struct {
	passes int
	events []string
}

func (r *tracer) Passes() int         { return r.passes }
func (r *tracer) StartPass(p int)     { r.events = append(r.events, fmt.Sprintf("P%d", p)) }
func (r *tracer) EndPass(p int)       { r.events = append(r.events, fmt.Sprintf("p%d", p)) }
func (r *tracer) StartList(v graph.V) { r.events = append(r.events, fmt.Sprintf("L%d", v)) }
func (r *tracer) EndList(v graph.V)   { r.events = append(r.events, fmt.Sprintf("l%d", v)) }
func (r *tracer) Edge(o, n graph.V)   { r.events = append(r.events, fmt.Sprintf("e%d-%d", o, n)) }

// sumEstimator is a deterministic estimator: its estimate hashes the exact
// item sequence it saw (order-sensitive), so broadcast-vs-sequential
// equality of estimates implies equality of the delivered streams.
type sumEstimator struct {
	tracer
	acc float64
}

func (e *sumEstimator) Edge(o, n graph.V) {
	e.acc = e.acc*31 + float64(o)*2 + float64(n)
}

func (e *sumEstimator) Estimate() float64 { return e.acc }
func (e *sumEstimator) SpaceWords() int64 { return 1 }

// dummyEstimate upgrades a tracer to an Estimator.
type dummyEstimate struct{}

func (dummyEstimate) Estimate() float64 { return 0 }
func (dummyEstimate) SpaceWords() int64 { return 0 }

// runPrebuilt runs the prebuilt copies ests on the pool with at most
// workers workers, as RunBroadcastContext does with GOMAXPROCS of them.
func runPrebuilt(ctx context.Context, s *Stream, ests []Estimator, workers int) (DriverStats, error) {
	return RunCopiesContext(ctx, s, len(ests), workers, func(i int) (Estimator, error) { return ests[i], nil }, nil)
}

// traced returns k tracers and the same tracers as Estimators.
func traced(k, passes int) ([]*tracer, []Estimator) {
	trs := make([]*tracer, k)
	ests := make([]Estimator, k)
	for i := range trs {
		trs[i] = &tracer{passes: passes}
		ests[i] = struct {
			*tracer
			dummyEstimate
		}{trs[i], dummyEstimate{}}
	}
	return trs, ests
}

// sums returns k fresh two-pass sumEstimators.
func sums(k int) []Estimator {
	ests := make([]Estimator, k)
	for i := range ests {
		ests[i] = &sumEstimator{tracer: tracer{passes: 2}}
	}
	return ests
}

// itemTrace derives the callback trace a copy must see from the row form
// alone, independently of the chunk walker: a list starts wherever the
// owner changes and closes before the next one starts or the pass ends.
func itemTrace(items []Item, passes int) []string {
	var events []string
	for p := 0; p < passes; p++ {
		events = append(events, fmt.Sprintf("P%d", p))
		for i, it := range items {
			if i == 0 || it.Owner != items[i-1].Owner {
				if i > 0 {
					events = append(events, fmt.Sprintf("l%d", items[i-1].Owner))
				}
				events = append(events, fmt.Sprintf("L%d", it.Owner))
			}
			events = append(events, fmt.Sprintf("e%d-%d", it.Owner, it.Nbr))
		}
		if len(items) > 0 {
			events = append(events, fmt.Sprintf("l%d", items[len(items)-1].Owner))
		}
		events = append(events, fmt.Sprintf("p%d", p))
	}
	return events
}

func singleEdgeStream(t *testing.T) *Stream {
	t.Helper()
	s, err := FromItems([]Item{{Owner: 1, Nbr: 2}, {Owner: 2, Nbr: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func emptyStream(t *testing.T) *Stream {
	t.Helper()
	s, err := FromItems(nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// chunkedStream rebuilds s's columnar form with a custom chunk size and an
// optional sprinkling of empty chunks, so the walker can be exercised on
// geometries the default 1024-item chunking never produces: single-item
// lists on chunk edges, lists spanning many chunks, and chunks with no
// items at all.
func chunkedStream(s *Stream, chunkItems int, emptyEvery int) *Stream {
	chunks := buildChunks(s.Items(), chunkItems)
	if emptyEvery > 0 {
		withEmpty := make([]Chunk, 0, 2*len(chunks))
		for i, c := range chunks {
			if i%emptyEvery == 0 {
				withEmpty = append(withEmpty, Chunk{})
			}
			withEmpty = append(withEmpty, c)
		}
		chunks = append(withEmpty, Chunk{})
	}
	return &Stream{
		chunks: chunks,
		n:      s.Len(),
		lists:  s.Lists(),
		m:      s.M(),
		items:  s.Items(),
	}
}

// TestBroadcastTraceMatchesSequential checks, event for event, that every
// copy sees exactly the callback sequence sequential Run produces — across
// copy counts and worker-pool sizes.
func TestBroadcastTraceMatchesSequential(t *testing.T) {
	g := randomGraph(30, 0.2, 5)
	s := Random(g, 3)
	want := &tracer{passes: 2}
	Run(s, want)
	for _, k := range []int{1, 2, 7, 16} {
		for _, workers := range []int{1, 2, 3, 64} {
			trs, copies := traced(k, 2)
			if _, err := runPrebuilt(context.Background(), s, copies, workers); err != nil {
				t.Fatal(err)
			}
			for i, tr := range trs {
				if !reflect.DeepEqual(tr.events, want.events) {
					t.Fatalf("k=%d workers=%d copy %d: trace diverges from sequential Run", k, workers, i)
				}
			}
		}
	}
}

// TestPullTraceMatchesSequential is TestBroadcastTraceMatchesSequential
// across chunk sizes: one item per chunk, a few items, a single chunk
// holding the whole stream, and empty chunks interleaved.
func TestPullTraceMatchesSequential(t *testing.T) {
	g := randomGraph(30, 0.2, 5)
	base := Random(g, 3)
	want := &tracer{passes: 2}
	Run(base, want)
	for _, geo := range []struct{ chunkItems, emptyEvery int }{
		{1, 0}, {3, 0}, {base.Len(), 0}, {5, 2},
	} {
		s := chunkedStream(base, geo.chunkItems, geo.emptyEvery)
		trs, copies := traced(5, 2)
		if _, err := runPrebuilt(context.Background(), s, copies, 2); err != nil {
			t.Fatal(err)
		}
		for i, tr := range trs {
			if !reflect.DeepEqual(tr.events, want.events) {
				t.Fatalf("chunks=%+v copy %d: trace diverges from sequential Run", geo, i)
			}
		}
	}
}

func TestBroadcastEstimatesMatchSequential(t *testing.T) {
	g := randomGraph(40, 0.15, 9)
	s := Random(g, 7)
	const k = 12
	seq := sums(k)
	par := sums(k)
	for _, e := range seq {
		Run(s, e)
	}
	if _, err := RunBroadcastContext(context.Background(), s, par); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if got, want := par[i].Estimate(), seq[i].Estimate(); got != want {
			t.Fatalf("copy %d: broadcast estimate %v != sequential %v", i, got, want)
		}
	}
}

func TestBroadcastEmptyStream(t *testing.T) {
	s := emptyStream(t)
	trs, copies := traced(1, 3)
	st, err := RunBroadcastContext(context.Background(), s, copies)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"P0", "p0", "P1", "p1", "P2", "p2"}
	if !reflect.DeepEqual(trs[0].events, want) {
		t.Fatalf("events = %v, want %v", trs[0].events, want)
	}
	if st.StreamItemsRead != 0 || st.ItemsDelivered != 0 || st.Passes != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBroadcastSingleEdgeStream(t *testing.T) {
	s := singleEdgeStream(t)
	want := &tracer{passes: 2}
	Run(s, want)
	trs, copies := traced(1, 2)
	if _, err := RunBroadcastContext(context.Background(), s, copies); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(trs[0].events, want.events) {
		t.Fatalf("events = %v, want %v", trs[0].events, want.events)
	}
}

func TestBroadcastNoEstimators(t *testing.T) {
	s := singleEdgeStream(t)
	st, err := RunBroadcastContext(context.Background(), s, nil)
	if err != nil || st != (DriverStats{}) {
		t.Fatalf("stats = %+v, err = %v, want zero stats and no error", st, err)
	}
}

// TestBroadcastMixedPassCounts drives copies that disagree on pass count:
// each copy must see exactly its own passes, and reads only its own passes
// of the stream.
func TestBroadcastMixedPassCounts(t *testing.T) {
	g := triangleGraph()
	s := Sorted(g)
	one := &tracer{passes: 1}
	three := &tracer{passes: 3}
	st, err := RunBroadcastContext(context.Background(), s, []Estimator{
		struct {
			*tracer
			dummyEstimate
		}{one, dummyEstimate{}},
		struct {
			*tracer
			dummyEstimate
		}{three, dummyEstimate{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantOne := &tracer{passes: 1}
	Run(s, wantOne)
	wantThree := &tracer{passes: 3}
	Run(s, wantThree)
	if !reflect.DeepEqual(one.events, wantOne.events) {
		t.Fatalf("1-pass copy saw %v, want %v", one.events, wantOne.events)
	}
	if !reflect.DeepEqual(three.events, wantThree.events) {
		t.Fatalf("3-pass copy saw %v, want %v", three.events, wantThree.events)
	}
	if st.Passes != 3 {
		t.Fatalf("Passes = %d, want 3", st.Passes)
	}
	// Each copy reads the stream itself: one pass for the 1-pass copy,
	// three for the 3-pass copy.
	if want := int64(4 * s.Len()); st.StreamItemsRead != want {
		t.Fatalf("StreamItemsRead = %d, want %d", st.StreamItemsRead, want)
	}
	if want := int64(4 * s.Len()); st.ItemsDelivered != want {
		t.Fatalf("ItemsDelivered = %d, want %d", st.ItemsDelivered, want)
	}
}

// TestBroadcastCountersMatchReplay checks the pool's counters at k = 32 on
// four workers: every copy reads the stream itself, so the reads equal the
// deliveries, what replaying the stream once per copy reads, and the
// chunks walked are chunks × passes × copies.
func TestBroadcastCountersMatchReplay(t *testing.T) {
	g := randomGraph(50, 0.2, 4)
	s := Random(g, 1)
	const k = 32
	st, err := runPrebuilt(context.Background(), s, sums(k), 4)
	if err != nil {
		t.Fatal(err)
	}
	replayReads := int64(k * 2 * s.Len())
	if st.StreamItemsRead != replayReads || st.ItemsDelivered != replayReads {
		t.Fatalf("reads %d, delivered %d; want %d each", st.StreamItemsRead, st.ItemsDelivered, replayReads)
	}
	if want := int64(2 * len(s.Chunks()) * k); st.Batches != want {
		t.Fatalf("Batches = %d, want %d (chunks × passes × copies)", st.Batches, want)
	}
	if st.Copies != k || st.Passes != 2 || st.Workers != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestMedianBroadcastMatchesMedianReplay pins the broadcast median to the
// median of the same copies each replaying the stream on its own.
func TestMedianBroadcastMatchesMedianReplay(t *testing.T) {
	g := randomGraph(35, 0.2, 6)
	s := Random(g, 2)
	mk := func() []Estimator {
		ests := make([]Estimator, 9)
		for i := range ests {
			ests[i] = &sumEstimator{tracer: tracer{passes: 2}, acc: float64(i)}
		}
		return ests
	}
	bEst, bSp, st, err := MedianBroadcastContext(context.Background(), s, mk())
	if err != nil {
		t.Fatal(err)
	}
	replayed := mk()
	for _, e := range replayed {
		Run(s, e)
	}
	rEst, rSp := MedianOf(replayed)
	if bEst != rEst || bSp != rSp {
		t.Fatalf("broadcast (%v, %d) != replay (%v, %d)", bEst, bSp, rEst, rSp)
	}
	if st.Copies != 9 || st.Passes != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDriverStatsMerge(t *testing.T) {
	a := DriverStats{Copies: 2, Passes: 1, StreamItemsRead: 10, ItemsDelivered: 20, Batches: 3, Workers: 4, PassSkewNS: 7}
	b := DriverStats{Copies: 3, Passes: 2, StreamItemsRead: 5, ItemsDelivered: 15, Batches: 2, Workers: 2, PassSkewNS: 9}
	a.Merge(b)
	want := DriverStats{Copies: 5, Passes: 2, StreamItemsRead: 15, ItemsDelivered: 35, Batches: 5, Workers: 4, PassSkewNS: 9}
	if a != want {
		t.Fatalf("merged = %+v, want %+v", a, want)
	}
}

// TestBroadcastRace is the -race regression test: many copies, small
// chunks, more workers than cores, shared immutable stream.
func TestBroadcastRace(t *testing.T) {
	g := randomGraph(40, 0.25, 8)
	s := chunkedStream(Random(g, 5), 16, 0)
	ests := sums(64)
	if _, err := runPrebuilt(context.Background(), s, ests, 32); err != nil {
		t.Fatal(err)
	}
	first := ests[0].Estimate()
	for i, e := range ests {
		if e.Estimate() != first {
			t.Fatalf("copy %d diverged: %v != %v", i, e.Estimate(), first)
		}
	}
}

// TestBroadcastWorkersClamped checks that a worker count beyond the copy
// count is clamped to it — no idle workers — reported through
// DriverStats.Workers.
func TestBroadcastWorkersClamped(t *testing.T) {
	g := randomGraph(25, 0.2, 1)
	s := Random(g, 2)
	for _, tc := range []struct{ workers, copies, want int }{
		{8, 3, 3},
		{2, 3, 2},
		{1, 3, 1},
	} {
		st, err := runPrebuilt(context.Background(), s, sums(tc.copies), tc.workers)
		if err != nil {
			t.Fatal(err)
		}
		if st.Workers != tc.want {
			t.Errorf("workers=%d copies=%d: Workers = %d, want %d", tc.workers, tc.copies, st.Workers, tc.want)
		}
	}
}

// TestCursorAcrossChunkBoundaries drives Run and the pool over fabricated chunk
// geometries — chunk size one (each list straddles chunk edges; single-item
// lists occupy exactly one chunk), size two, and sizes one and three with
// interleaved empty chunks — at one and three workers, and checks every
// copy against the trace derived from Items() alone, including the close
// of the final open list.
func TestCursorAcrossChunkBoundaries(t *testing.T) {
	// A path plus a pendant: list 2 spans chunks at size 1, lists 1 and 4
	// are single-item lists landing exactly on chunk edges.
	items := []Item{
		{Owner: 1, Nbr: 2},
		{Owner: 2, Nbr: 1}, {Owner: 2, Nbr: 3}, {Owner: 2, Nbr: 4},
		{Owner: 3, Nbr: 2},
		{Owner: 4, Nbr: 2},
	}
	base, err := FromItems(items)
	if err != nil {
		t.Fatal(err)
	}
	want := itemTrace(items, 2)
	for _, geo := range []struct {
		name       string
		chunkItems int
		emptyEvery int
	}{
		{"size1", 1, 0},
		{"size2", 2, 0},
		{"size3-empties", 3, 1},
		{"size1-empties", 1, 2},
	} {
		t.Run(geo.name, func(t *testing.T) {
			s := chunkedStream(base, geo.chunkItems, geo.emptyEvery)
			seq := &tracer{passes: 2}
			Run(s, seq)
			if !reflect.DeepEqual(seq.events, want) {
				t.Errorf("sequential: trace diverges\n got %v\nwant %v", seq.events, want)
			}
			for _, workers := range []int{1, 3} {
				trs, copies := traced(3, 2)
				if _, err := runPrebuilt(context.Background(), s, copies, workers); err != nil {
					t.Fatal(err)
				}
				for i, tr := range trs {
					if !reflect.DeepEqual(tr.events, want) {
						t.Errorf("broadcast workers=%d copy %d: trace diverges\n got %v\nwant %v", workers, i, tr.events, want)
					}
				}
			}
		})
	}
}

// TestPullPassSkewReported checks that a multi-worker run reports a
// non-negative spread of its workers' finish times and the worker count it
// actually used.
func TestPullPassSkewReported(t *testing.T) {
	g := randomGraph(40, 0.2, 4)
	s := Random(g, 5)
	st, err := runPrebuilt(context.Background(), s, sums(8), 4)
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 4 {
		t.Errorf("Workers = %d, want 4", st.Workers)
	}
	if st.PassSkewNS < 0 {
		t.Errorf("PassSkewNS = %d, want >= 0", st.PassSkewNS)
	}
}
