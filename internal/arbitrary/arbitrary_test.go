package arbitrary

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"adjstream/internal/gen"
	"adjstream/internal/graph"
	"adjstream/internal/stats"
	"adjstream/internal/stream"
)

func TestFromEdgesValidation(t *testing.T) {
	if _, err := FromEdges([]graph.Edge{{U: 1, V: 1}}); err == nil {
		t.Fatal("expected self-loop error")
	}
	if _, err := FromEdges([]graph.Edge{{U: 1, V: 2}, {U: 2, V: 1}}); err == nil {
		t.Fatal("expected duplicate error")
	}
	s, err := FromEdges([]graph.Edge{{U: 1, V: 2}, {U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if s.M() != 2 {
		t.Fatalf("M = %d", s.M())
	}
}

// TestOutOfRangeIDsRejected feeds ids just outside [0, graph.MaxV] to both
// stream constructors. Each error names the offending edge's index or line;
// the boundary id graph.MaxV itself is accepted. A larger id would alias a
// smaller one in the estimators' packed keys: {0, 2³²+5} packs as {0, 5}.
func TestOutOfRangeIDsRejected(t *testing.T) {
	for _, bad := range []graph.V{-1, graph.MaxV + 1, graph.MaxV + 6} {
		edges := []graph.Edge{{U: 0, V: 5}, {U: 0, V: bad}, {U: 5, V: 7}}
		_, err := FromEdges(edges)
		if err == nil || !strings.Contains(err.Error(), "edge 1 ") {
			t.Errorf("FromEdges with id %d: err = %v, want an error naming edge 1", bad, err)
		}
		text := fmt.Sprintf("0 5\n# comment\n0 %d\n5 7\n", bad)
		_, err = ReadEdges(strings.NewReader(text))
		if err == nil || !strings.Contains(err.Error(), "line 3:") {
			t.Errorf("ReadEdges with id %d: err = %v, want an error naming line 3", bad, err)
		}
	}
	s, err := FromEdges([]graph.Edge{{U: 0, V: graph.MaxV}, {U: graph.MaxV, V: 5}})
	if err != nil {
		t.Fatalf("FromEdges at graph.MaxV: %v", err)
	}
	if s.N() != int64(graph.MaxV)+1 {
		t.Fatalf("N = %d, want %d", s.N(), int64(graph.MaxV)+1)
	}
	if _, err := ReadEdges(strings.NewReader(fmt.Sprintf("%d 0\n", graph.MaxV))); err != nil {
		t.Fatalf("ReadEdges at graph.MaxV: %v", err)
	}
}

// TestFromAdjacencyStreamTrustsTheStreamPromise feeds the conversion an
// "adjC" payload that repeats an item before the neighbour's list starts.
// The columnar decoder checks structure only and accepts it; Validate
// rejects its items; the conversion checks nothing and passes the repeat on
// as a repeated edge, which FromEdges rejects.
func TestFromAdjacencyStreamTrustsTheStreamPromise(t *testing.T) {
	g := graph.MustFromEdges([]graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}})
	var buf bytes.Buffer
	if err := stream.WriteColumnar(&buf, stream.Sorted(g)); err != nil {
		t.Fatal(err)
	}
	// One chunk holds the items (0,1) (0,2) (1,0) (1,2) (2,0) (2,1): after
	// the 48-byte header and one 8-byte directory entry come the six owners,
	// then the neighbours. Item 1 becomes a second (0,1).
	data := buf.Bytes()
	binary.LittleEndian.PutUint32(data[48+8+6*4+1*4:], 1)
	s, err := stream.ReadColumnar(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("decoder rejected a structurally sound payload: %v", err)
	}
	if err := stream.Validate(s.Items()); err == nil || !strings.Contains(err.Error(), "duplicate item (0,1)") {
		t.Fatalf("Validate: err = %v, want a duplicate item (0,1)", err)
	}
	got := FromAdjacencyStream(s).Edges()
	if want := []graph.Edge{{U: 0, V: 1}, {U: 0, V: 1}, {U: 1, V: 2}}; !slices.Equal(got, want) {
		t.Fatalf("edges = %v, want %v", got, want)
	}
	if _, err := FromEdges(got); err == nil {
		t.Fatal("FromEdges accepted the repeated edge")
	}
}

func TestFromGraphShufflesDeterministically(t *testing.T) {
	g := gen.Complete(8)
	a, b := FromGraph(g, 1), FromGraph(g, 1)
	for i := range a.Edges() {
		if a.Edges()[i] != b.Edges()[i] {
			t.Fatal("same seed gave different orders")
		}
	}
	c := FromGraph(g, 2)
	same := true
	for i := range a.Edges() {
		if a.Edges()[i] != c.Edges()[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds gave identical orders")
	}
}

func TestTwoPassWedgeExactAtFullSample(t *testing.T) {
	// p = 1: every wedge stored, every closure found: closed = 3T exactly.
	for seed := uint64(1); seed <= 5; seed++ {
		g, err := gen.ErdosRenyi(15, 0.4, seed)
		if err != nil {
			t.Fatal(err)
		}
		alg, err := NewTwoPassWedge(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		Run(FromGraph(g, seed), alg)
		if got := alg.Estimate(); got != float64(g.Triangles()) {
			t.Fatalf("seed %d: estimate %v, want %d", seed, got, g.Triangles())
		}
		if alg.M() != g.M() {
			t.Fatalf("M = %d", alg.M())
		}
	}
}

func TestTwoPassWedgeUnbiased(t *testing.T) {
	g, err := gen.PlantedTriangles(60, 20, 0.3, 4)
	if err != nil {
		t.Fatal(err)
	}
	truth := float64(g.Triangles())
	s := FromGraph(g, 9)
	var ests []float64
	for seed := uint64(0); seed < 300; seed++ {
		alg, err := NewTwoPassWedge(0.5, seed*3+1)
		if err != nil {
			t.Fatal(err)
		}
		Run(s, alg)
		ests = append(ests, alg.Estimate())
	}
	if mean := stats.Mean(ests); math.Abs(mean-truth)/truth > 0.1 {
		t.Fatalf("mean %v, truth %v", mean, truth)
	}
}

func TestTwoPassWedgeRejectsBadP(t *testing.T) {
	for _, p := range []float64{0, -1, 1.5} {
		if _, err := NewTwoPassWedge(p, 1); err == nil {
			t.Fatalf("p=%v should fail", p)
		}
	}
}

func TestBuriolUnbiased(t *testing.T) {
	g := gen.Complete(10) // T = 120, n = 10, m = 45
	truth := float64(g.Triangles())
	n := int64(g.N())
	var ests []float64
	for seed := uint64(0); seed < 200; seed++ {
		alg, err := NewBuriolSampler(200, n, seed+1)
		if err != nil {
			t.Fatal(err)
		}
		Run(FromGraph(g, seed), alg)
		ests = append(ests, alg.Estimate())
	}
	if mean := stats.Mean(ests); math.Abs(mean-truth)/truth > 0.15 {
		t.Fatalf("mean %v, truth %v", mean, truth)
	}
}

func TestBuriolSingleTriangle(t *testing.T) {
	// One triangle, three vertices: every instance whose sampled edge is
	// the first-arriving triangle edge and whose w is the third vertex
	// succeeds; none else. Estimate must be non-negative and m·(n-2)-quantized.
	g := gen.DisjointTriangles(1)
	alg, err := NewBuriolSampler(50, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	Run(FromGraph(g, 3), alg)
	est := alg.Estimate()
	if est < 0 {
		t.Fatalf("estimate %v", est)
	}
	// With n=3 and m=3, quantum is m(n-2)/R = 3/50.
	if rem := math.Mod(est*50, 3); rem > 1e-9 && rem < 3-1e-9 {
		t.Fatalf("estimate %v is not quantized as expected", est)
	}
}

func TestBuriolValidation(t *testing.T) {
	if _, err := NewBuriolSampler(0, 10, 1); err == nil {
		t.Fatal("r=0 should fail")
	}
	if _, err := NewBuriolSampler(5, 2, 1); err == nil {
		t.Fatal("n<3 should fail")
	}
}

func TestTwoPassWedgeSpaceGrowsWithP(t *testing.T) {
	g, err := gen.ErdosRenyi(60, 0.3, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := FromGraph(g, 1)
	lo, err := NewTwoPassWedge(0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	Run(s, lo)
	hi, err := NewTwoPassWedge(0.9, 5)
	if err != nil {
		t.Fatal(err)
	}
	Run(s, hi)
	if hi.SpaceWords() <= lo.SpaceWords() {
		t.Fatalf("space lo=%d hi=%d", lo.SpaceWords(), hi.SpaceWords())
	}
}

// orderRecorder records the edge sequence presented in each pass.
type orderRecorder struct {
	passes int
	seqs   [][]graph.Edge
}

func (r *orderRecorder) Passes() int     { return r.passes }
func (r *orderRecorder) StartPass(p int) { r.seqs = append(r.seqs, nil) }
func (r *orderRecorder) Edge(u, v graph.V) {
	r.seqs[len(r.seqs)-1] = append(r.seqs[len(r.seqs)-1], graph.Edge{U: u, V: v})
}
func (r *orderRecorder) EndPass(p int) {}

// Property: Run presents the identical edge sequence on every pass — the
// replay-determinism contract multi-pass estimators rely on.
func TestRunIdenticalOrderEveryPass(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := gen.ErdosRenyi(14, 0.4, seed%64+1)
		if err != nil {
			return false
		}
		rec := &orderRecorder{passes: 3}
		Run(FromGraph(g, seed), rec)
		if len(rec.seqs) != 3 || int64(len(rec.seqs[0])) != g.M() {
			return false
		}
		for p := 1; p < 3; p++ {
			for i := range rec.seqs[0] {
				if rec.seqs[p][i] != rec.seqs[0][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// FromEdges must copy: a caller mutating its slice mid-run (between passes)
// must not change what later passes replay.
func TestFromEdgesDefensiveCopy(t *testing.T) {
	edges := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}
	s, err := FromEdges(edges)
	if err != nil {
		t.Fatal(err)
	}
	edges[0] = graph.Edge{U: 7, V: 8}
	if got := s.Edges()[0]; got != (graph.Edge{U: 0, V: 1}) {
		t.Fatalf("stream edge mutated through caller slice: %v", got)
	}
	// The sharper version of the same bug: mutate from inside a pass and
	// check the recorded sequences still match across passes.
	s2, err := FromEdges(edges)
	if err != nil {
		t.Fatal(err)
	}
	rec := &mutatingRecorder{orderRecorder: orderRecorder{passes: 2}, caller: edges}
	Run(s2, rec)
	for i := range rec.seqs[0] {
		if rec.seqs[1][i] != rec.seqs[0][i] {
			t.Fatalf("pass 1 diverged at %d: %v vs %v", i, rec.seqs[1][i], rec.seqs[0][i])
		}
	}
}

type mutatingRecorder struct {
	orderRecorder
	caller []graph.Edge
}

func (r *mutatingRecorder) EndPass(p int) {
	for i := range r.caller {
		r.caller[i] = graph.Edge{U: 90 + graph.V(i), V: 99 + graph.V(i)}
	}
}

func TestStreamN(t *testing.T) {
	s, err := FromEdges([]graph.Edge{{U: 3, V: 9}, {U: 0, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 10 {
		t.Fatalf("N = %d, want 10", s.N())
	}
	empty, err := FromEdges(nil)
	if err != nil {
		t.Fatal(err)
	}
	if empty.N() != 0 {
		t.Fatalf("empty N = %d", empty.N())
	}
}

func TestReadEdges(t *testing.T) {
	s, err := ReadEdges(strings.NewReader("# comment\n0 1\n\n2 3\n1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}, {U: 1, V: 2}}
	for i, e := range s.Edges() {
		if e != want[i] {
			t.Fatalf("edge %d = %v, want %v", i, e, want[i])
		}
	}
	for _, bad := range []string{"0\n", "a b\n", "-1 2\n", "1 1\n", "0 1\n1 0\n"} {
		if _, err := ReadEdges(strings.NewReader(bad)); err == nil {
			t.Fatalf("input %q should fail", bad)
		}
	}
}

func TestRunContextCancel(t *testing.T) {
	g := gen.Complete(40)
	s := FromGraph(g, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	alg, err := NewTwoPassWedge(0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunContext(ctx, s, alg); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Uncancelled: identical result to Run.
	a1, _ := NewTwoPassWedge(0.5, 1)
	a2, _ := NewTwoPassWedge(0.5, 1)
	Run(s, a1)
	if err := RunContext(context.Background(), s, a2); err != nil {
		t.Fatal(err)
	}
	if a1.Estimate() != a2.Estimate() {
		t.Fatalf("RunContext %v != Run %v", a2.Estimate(), a1.Estimate())
	}
}

// Property: full-sample two-pass wedge closure equals 3T on random inputs
// regardless of edge order.
func TestTwoPassWedgeClosureQuick(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := gen.ErdosRenyi(12, 0.5, seed%128+1)
		if err != nil {
			return false
		}
		alg, err := NewTwoPassWedge(1, 1)
		if err != nil {
			return false
		}
		Run(FromGraph(g, seed), alg)
		return alg.Estimate() == float64(g.Triangles())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
