package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
	"time"

	"adjstream/internal/gen"
	"adjstream/internal/graph"
	"adjstream/internal/serve"
)

// The workloads, in the order BENCHMARK.json lists them.
const (
	coldEstimate = "cold-estimate"
	hotMix       = "hot-mix"
	ingestChurn  = "ingest-churn"
	clusterProxy = "cluster-proxy"
)

var workloadNames = []string{coldEstimate, hotMix, ingestChurn, clusterProxy}

const (
	// loadConns is the load generator's budget of connections and
	// closed-loop clients; run caps it further at nproc.
	loadConns = 2
	// churnBatchOps is the size of one ingest-churn edge batch: half
	// additions of absent edges, half removals of present ones, so the edge
	// count stays level.
	churnBatchOps = 64
	// probeBatchOps is the size of an ingest-probe batch: larger than the
	// writer's, so that the ack measures staging and merging rather than
	// the host's wake-up latency on an otherwise idle service.
	probeBatchOps = 256
	// mergeEvery fresh batches fill the merge threshold, so about one
	// batch in four publishes a new graph version.
	mergeEvery = 4
	// resendOneIn: about one batch id in this many is sent again.
	resendOneIn = 32
	// probeBatches is the number of sends of the ingest probe that
	// workloads without a live writer make after their timed window (see
	// README.md): eight windows of 200 for the windowed percentiles.
	probeBatches = 1600
	// qualityPrefix is the number of answers behind relerr_mean and
	// space_words_mean on every workload (see README.md).
	qualityPrefix = 192
	// hotSpecs is the size of the hot-mix spec pool, all primed in setup.
	hotSpecs = 64
	// hotZipf is the skew of the hot-mix popularity distribution.
	hotZipf = 1.1
	// churnWriteRate and churnReadRate are the ingest-churn offered rates
	// (batches/s and reads/s): four versions a second, each costing the
	// reader three misses, leave about four reads in five to hit.
	churnWriteRate = 16
	churnReadRate  = 60
)

// graphDef names one generated Chung–Lu dataset.
type graphDef struct {
	Name   string
	N      int
	Gamma  float64
	MaxDeg float64
}

// generate builds the dataset for seed; each dataset gets its own stream.
func (d graphDef) generate(seed uint64) (*graph.Graph, error) {
	return gen.ChungLu(d.N, d.Gamma, d.MaxDeg, derive(seed, "graph/"+d.Name, 0))
}

var (
	// graphCL2k is the power-law graph behind cold-estimate and
	// cluster-proxy (m ≈ 3k, T ≈ 2k, C4 ≈ 30k for most seeds).
	graphCL2k = graphDef{Name: "cl2k", N: 2000, Gamma: 2.2, MaxDeg: 400}
	// graphCL1k is hot-mix's second, smaller graph.
	graphCL1k = graphDef{Name: "cl1k", N: 1000, Gamma: 2.3, MaxDeg: 200}
	// graphChurn is the graph ingest-churn mutates; larger, so a merge
	// (Apply, sorted stream, fingerprint) costs well above staging.
	graphChurn = graphDef{Name: "churn", N: 6000, Gamma: 2.2, MaxDeg: 600}
)

// shape is a read request without its graph and seed: requests of one
// shape differ only in data, and the probe phase runs once per shape.
type shape struct {
	Label string
	Kind  string // "estimate" or "distinguish"
	Spec  serve.EstimateRequest
}

// at fills in the graph and seed.
func (s shape) at(graphName string, seed uint64) readReq {
	spec := s.Spec
	spec.Graph = graphName
	spec.Seed = &seed
	return readReq{Kind: s.Kind, Shape: s.Label, Spec: spec}
}

// The cold-estimate shapes: the paper's estimators at k = 9.
var (
	shapeTri = shape{"twopass-triangle/k512", "estimate", serve.EstimateRequest{
		Algorithm: "twopass-triangle", SampleSize: 512, Copies: 9, Parallel: true}}
	shapeTriRandom = shape{"twopass-triangle/k512/random", "estimate", serve.EstimateRequest{
		Algorithm: "twopass-triangle", SampleSize: 512, Copies: 9, Parallel: true, Order: "random"}}
	shapeFC = shape{"twopass-fourcycle/p0.1", "estimate", serve.EstimateRequest{
		Algorithm: "twopass-fourcycle", SampleProb: 0.1, Copies: 9, Parallel: true}}
	shapeNearOpt = shape{"arb-nearopt-fourcycle/p0.05", "estimate", serve.EstimateRequest{
		Model: "arbitrary", Algorithm: "arb-nearopt-fourcycle", SampleProb: 0.05, Copies: 9, Parallel: true}}
)

// readReq is one read request: an estimate or distinguish spec.
type readReq struct {
	Kind  string
	Shape string
	Spec  serve.EstimateRequest
}

// path is the endpoint the request posts to.
func (r readReq) path() string { return "/v1/" + r.Kind }

// timedRead is one open-loop read: the spec index and when it is due,
// measured from the start of the window.
type timedRead struct {
	Due  time.Duration
	Spec int
}

// edgeBatch is one edge batch, due at an offset into the window (zero for
// the back-to-back ingest probe). A resend repeats an earlier batch's id
// and body.
type edgeBatch struct {
	Due    time.Duration
	Resend bool
	Req    serve.EdgeBatchRequest
}

// plan is everything a run sends, as a pure function of the workload, the
// seed and the window length.
type plan struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Graphs   []graphDef

	// Closed loop: Clients walk closedRead(0), closedRead(1), ... until
	// the window ends: a rotation over Rotation's shapes with fresh seeds,
	// or (hot-mix) Zipf draws from Specs.
	Clients  int
	Rotation []shape

	// Specs is the hot-mix pool, all primed in setup, or the ingest-churn
	// reader's fixed set; Reads is the reader's open-loop schedule.
	Specs []readReq
	Reads []timedRead
	// HotQuality extends the hot-mix pool with further draws of the same
	// mix: relerr_mean and space_words_mean average over the pool and them.
	HotQuality []readReq
	// zipfCum and zipfRank turn a uniform draw into a hot-mix spec index:
	// cumulative popularity by rank, and the spec at each rank.
	zipfCum  []float64
	zipfRank []int
	// Writes is the ingest-churn writer's batch sequence.
	Writes []edgeBatch
	// Probe is the ingest probe sent after the window by the workloads
	// without a writer, against Graphs[0].
	Probe []edgeBatch
	// BatchOps is the size of the workload's edge batches; the merge
	// threshold is mergeEvery of them.
	BatchOps int
}

// closed reports whether the workload runs a closed loop.
func (p *plan) closed() bool { return p.Clients > 0 }

// closedRead is the i-th request of a closed-loop schedule: the rotation
// over the workload's shapes, each request with a fresh seed, or the i-th
// Zipf draw from the hot-mix pool.
func (p *plan) closedRead(i int) readReq {
	if p.Rotation == nil {
		return p.Specs[p.hotSpec(i)]
	}
	return p.Rotation[i%len(p.Rotation)].at(p.Graphs[0].Name, derive(p.Seed, "read", uint64(i)))
}

// hotSpec is the pool index of the i-th hot-mix request: Zipf-skewed
// popularity over a seeded ranking of the pool.
func (p *plan) hotSpec(i int) int {
	total := p.zipfCum[len(p.zipfCum)-1]
	u := float64(derive(p.Seed, "hot-read", uint64(i))>>11) / (1 << 53)
	r := sort.SearchFloat64s(p.zipfCum, u*total)
	return p.zipfRank[min(r, len(p.zipfRank)-1)]
}

// newPlan generates the workload's graphs and its schedule.
func newPlan(workload string, seed uint64, seconds float64) (*plan, map[string]*graph.Graph, error) {
	p := &plan{Workload: workload, Seed: seed, Seconds: seconds}
	switch workload {
	case coldEstimate:
		p.Graphs = []graphDef{graphCL2k}
		p.Clients = loadConns
		p.Rotation = []shape{shapeTri, shapeFC, shapeTri, shapeNearOpt, shapeTri, shapeFC, shapeTriRandom, shapeNearOpt}
	case clusterProxy:
		// The cold-estimate rotation without its arbitrary-model entries,
		// which bypass the cluster.
		p.Graphs = []graphDef{graphCL2k}
		p.Clients = loadConns
		p.Rotation = []shape{shapeTri, shapeFC, shapeTri, shapeTri, shapeFC, shapeTriRandom}
	case hotMix:
		p.Graphs = []graphDef{graphCL2k, graphCL1k}
		p.Clients = loadConns
	case ingestChurn:
		p.Graphs = []graphDef{graphChurn}
	default:
		return nil, nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	graphs := make(map[string]*graph.Graph, len(p.Graphs))
	for _, d := range p.Graphs {
		g, err := d.generate(seed)
		if err != nil {
			return nil, nil, err
		}
		graphs[d.Name] = g
	}
	first := graphs[p.Graphs[0].Name]
	p.BatchOps = probeBatchOps
	var err error
	switch workload {
	case hotMix:
		pool := hotSpecPool(seed, p.Graphs, qualityPrefix)
		p.Specs, p.HotQuality = pool[:hotSpecs:hotSpecs], pool[hotSpecs:]
		p.zipfRank = newRNG(derive(seed, "hot-rank", 0)).Perm(len(p.Specs))
		total := 0.0
		for r := range p.zipfRank {
			total += 1 / math.Pow(float64(r+1), hotZipf)
			p.zipfCum = append(p.zipfCum, total)
		}
		p.Probe, err = genBatches(first, derive(seed, "probe", 0), probeBatches, p.BatchOps, 0, "p")
	case ingestChurn:
		p.Specs = churnReaderSpecs(seed)
		n := int(churnReadRate * seconds)
		for i := 0; i < n; i++ {
			p.Reads = append(p.Reads, timedRead{Due: every(churnReadRate, i), Spec: i % len(p.Specs)})
		}
		p.BatchOps = churnBatchOps
		p.Writes, err = genBatches(first, derive(seed, "writes", 0), int(churnWriteRate*seconds), p.BatchOps, churnWriteRate, "w")
	default:
		p.Probe, err = genBatches(first, derive(seed, "probe", 0), probeBatches, p.BatchOps, 0, "p")
	}
	if err != nil {
		return nil, nil, err
	}
	return p, graphs, nil
}

// every returns the due offset of the i-th arrival at a fixed rate.
func every(rate float64, i int) time.Duration {
	return time.Duration(float64(i) * float64(time.Second) / rate)
}

// hotSpecPool draws n hot-mix specs: estimate and distinguish specs over
// the catalog's graphs, cheap enough to prime in setup. The mix of
// templates and graphs is fixed and only the seeds vary, so the pool's
// cost and space do not depend on the seed. The first spec is a
// twopass-triangle one, the shape the shape-level layer metrics come from.
func hotSpecPool(seed uint64, graphs []graphDef, n int) []readReq {
	rng := newRNG(derive(seed, "hot-specs", 0))
	templates := []shape{
		{"twopass-triangle/k256/c3", "estimate", serve.EstimateRequest{Algorithm: "twopass-triangle", SampleSize: 256, Copies: 3, Parallel: true}},
		{"twopass-fourcycle/p0.1/c3", "estimate", serve.EstimateRequest{Algorithm: "twopass-fourcycle", SampleProb: 0.1, Copies: 3, Parallel: true}},
		{"arb-nearopt-fourcycle/p0.05/c3", "estimate", serve.EstimateRequest{Model: "arbitrary", Algorithm: "arb-nearopt-fourcycle", SampleProb: 0.05, Copies: 3, Parallel: true}},
		{"twopass-triangle/k512/c5", "estimate", serve.EstimateRequest{Algorithm: "twopass-triangle", SampleSize: 512, Copies: 5, Parallel: true}},
		{"twopass-fourcycle/p0.2/c5", "estimate", serve.EstimateRequest{Algorithm: "twopass-fourcycle", SampleProb: 0.2, Copies: 5, Parallel: true}},
		{"distinguish/3/c3", "distinguish", serve.EstimateRequest{CycleLen: 3, Copies: 3, Parallel: true}},
		{"distinguish/4/c3", "distinguish", serve.EstimateRequest{CycleLen: 4, Copies: 3, Parallel: true}},
	}
	specs := make([]readReq, n)
	for i := range specs {
		t, g := templates[i%len(templates)], graphs[i/len(templates)%len(graphs)]
		specs[i] = t.at(g.Name, rng.Uint64())
	}
	return specs
}

// churnReaderShape is the ingest-churn reader's shape. Its copies run in
// sequence, on one core, so a miss leaves the other core to the writer.
var churnReaderShape = shape{"twopass-triangle/k128/c3", "estimate", serve.EstimateRequest{
	Algorithm: "twopass-triangle", SampleSize: 128, Copies: 3}}

// churnReaderSpecs is the ingest-churn reader's fixed set: three seeds of
// one shape, so that every miss costs about the same and the p90 of reads
// lands inside one cluster of misses. Each misses once per graph version.
func churnReaderSpecs(seed uint64) []readReq {
	specs := make([]readReq, 3)
	for i := range specs {
		specs[i] = churnReaderShape.at(graphChurn.Name, derive(seed, "churn-reader", uint64(i)))
	}
	return specs
}

// edgeModel is the benchmark's own view of a mutating graph, from which
// edge batches are drawn so that every op is valid when it arrives.
type edgeModel struct {
	verts []graph.V
	deg   map[graph.V]int
	edges []graph.Edge
	pos   map[graph.Edge]int
}

func newEdgeModel(g *graph.Graph) *edgeModel {
	m := &edgeModel{deg: map[graph.V]int{}, pos: map[graph.Edge]int{}}
	for _, v := range g.Vertices() {
		if g.Degree(v) > 0 {
			m.verts = append(m.verts, v)
		}
	}
	for _, e := range g.Edges() {
		m.insert(e.Norm())
	}
	return m
}

func (m *edgeModel) insert(e graph.Edge) {
	m.pos[e] = len(m.edges)
	m.edges = append(m.edges, e)
	m.deg[e.U]++
	m.deg[e.V]++
}

func (m *edgeModel) remove(e graph.Edge) {
	i := m.pos[e]
	last := m.edges[len(m.edges)-1]
	m.edges[i] = last
	m.pos[last] = i
	m.edges = m.edges[:len(m.edges)-1]
	delete(m.pos, e)
	m.deg[e.U]--
	m.deg[e.V]--
}

// batch draws one batch: additions of absent edges between existing
// vertices and removals of present edges, no edge twice, and no removal
// that would isolate a vertex. Isolated vertices would survive a merge but
// not an edge-list rebuild, so the rule keeps the final fingerprint
// comparable with graph.FromEdges.
func (m *edgeModel) batch(rng *rand.Rand, ops int) (add, remove [][2]int64, err error) {
	touched := map[graph.Edge]bool{}
	for tries := 0; len(add) < ops/2; tries++ {
		if tries > 1000*ops {
			return nil, nil, fmt.Errorf("edge model: no absent edge found")
		}
		u, v := m.verts[rng.IntN(len(m.verts))], m.verts[rng.IntN(len(m.verts))]
		e := graph.Edge{U: u, V: v}.Norm()
		if _, ok := m.pos[e]; ok || u == v || touched[e] {
			continue
		}
		touched[e] = true
		m.insert(e)
		add = append(add, [2]int64{int64(e.U), int64(e.V)})
	}
	for tries := 0; len(remove) < ops/2; tries++ {
		if tries > 1000*ops {
			return nil, nil, fmt.Errorf("edge model: no removable edge found")
		}
		e := m.edges[rng.IntN(len(m.edges))]
		if touched[e] || m.deg[e.U] < 2 || m.deg[e.V] < 2 {
			continue
		}
		touched[e] = true
		m.remove(e)
		remove = append(remove, [2]int64{int64(e.U), int64(e.V)})
	}
	return add, remove, nil
}

// genBatches draws n sends of ops-op batches against g, due at a fixed
// rate (rate 0: all due at once). About one send in resendOneIn repeats an
// earlier batch's id and body; the rest are fresh batches named
// prefix+index.
func genBatches(g *graph.Graph, seed uint64, n, ops int, rate float64, prefix string) ([]edgeBatch, error) {
	rng := newRNG(seed)
	m := newEdgeModel(g)
	out := make([]edgeBatch, 0, n)
	var fresh []serve.EdgeBatchRequest
	for i := 0; i < n; i++ {
		var due time.Duration
		if rate > 0 {
			due = every(rate, i)
		}
		if len(fresh) > 0 && rng.IntN(resendOneIn) == 0 {
			out = append(out, edgeBatch{Due: due, Resend: true, Req: fresh[rng.IntN(len(fresh))]})
			continue
		}
		add, remove, err := m.batch(rng, ops)
		if err != nil {
			return nil, err
		}
		req := serve.EdgeBatchRequest{BatchID: prefix + strconv.Itoa(len(fresh)), Add: add, Remove: remove}
		fresh = append(fresh, req)
		out = append(out, edgeBatch{Due: due, Req: req})
	}
	return out, nil
}

// replayOps applies the fresh batches of an op log to g's edge set and
// returns the resulting edges: the benchmark's independent account of what
// the served graph must hold.
func replayOps(g *graph.Graph, log []edgeBatch) []graph.Edge {
	present := make(map[graph.Edge]bool, g.M())
	for _, e := range g.Edges() {
		present[e.Norm()] = true
	}
	for _, b := range log {
		if b.Resend {
			continue
		}
		for _, p := range b.Req.Add {
			present[graph.Edge{U: graph.V(p[0]), V: graph.V(p[1])}.Norm()] = true
		}
		for _, p := range b.Req.Remove {
			delete(present, graph.Edge{U: graph.V(p[0]), V: graph.V(p[1])}.Norm())
		}
	}
	out := make([]graph.Edge, 0, len(present))
	for e := range present {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// derive maps (seed, tag, i) to an independent 64-bit seed.
func derive(seed uint64, tag string, i uint64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(tag))
	return splitmix(splitmix(seed^h.Sum64()) ^ i)
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func newRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, splitmix(seed))) }
