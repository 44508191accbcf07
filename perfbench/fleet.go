package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"adjstream"
	"adjstream/internal/cluster"
	"adjstream/internal/graph"
	"adjstream/internal/serve"
)

// clusterReplicas is the size of the cluster-proxy fleet.
const clusterReplicas = 3

// serveConfig is the serve.Config that adjserved and adjproxy build from
// their default flags; remote is nil for a plain server.
func serveConfig(remote serve.RemoteRunner, remoteIngest func(context.Context, string, []byte) error) serve.Config {
	return serve.Config{
		Workers:      0,
		Queue:        -1,
		MaxTimeout:   30 * time.Second,
		CacheEntries: 4096,
		Remote:       remote,
		RemoteIngest: remoteIngest,
	}
}

// node is one in-process service on a loopback listener.
type node struct {
	cat     *serve.Catalog
	srv     *serve.Server
	hs      *http.Server
	url     string
	served  chan error
	loadDir time.Duration
}

// loadCatalog builds a catalog the way the binaries do: merge policy first,
// then LoadDir over the generated edge files. A merge is due every
// mergeEvery batches of batchOps ops.
func loadCatalog(dir string, batchOps int) (*serve.Catalog, time.Duration, error) {
	cat := serve.NewCatalog()
	cat.SetMergePolicy(batchOps*mergeEvery, serve.DefaultMaxVersions)
	start := time.Now()
	n, err := cat.LoadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	if n == 0 {
		return nil, 0, fmt.Errorf("no edge files in %s", dir)
	}
	return cat, time.Since(start), nil
}

// startNode loads a catalog and serves it; wrap, when set, is the tracing
// middleware around the server's handler.
func startNode(dir string, batchOps int, cfg serve.Config, wrap func(http.Handler) http.Handler) (*node, error) {
	cat, loadDir, err := loadCatalog(dir, batchOps)
	if err != nil {
		return nil, err
	}
	srv := serve.New(cat, cfg)
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{cat: cat, srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(),
		served: make(chan error, 1), loadDir: loadDir}
	go func() { n.served <- n.hs.Serve(ln) }()
	return n, nil
}

// stop closes the listener and connections and waits for Serve to return.
func (n *node) stop() {
	n.hs.Close()
	<-n.served
}

// truth is a dataset's exact cycle counts, the reference for relerr_mean.
type truth struct {
	Triangles  int64
	FourCycles int64
}

// forCycleLen returns the exact count an estimate of that cycle length
// approximates.
func (t truth) forCycleLen(l int) float64 {
	if l == 4 {
		return float64(t.FourCycles)
	}
	return float64(t.Triangles)
}

// fleet is one booted deployment: the node clients talk to (server or
// proxy), the replicas behind a proxy, and the datasets every answer of
// the run is checked against.
type fleet struct {
	front    *node
	replicas []*node
	sched    *cluster.Scheduler
	pinned   map[string]*serve.Dataset
	truth    map[string]truth
	truthDur time.Duration
	setup    time.Duration
	primed   []answer // hot-mix: the answer per spec
}

// stop shuts the fleet down; every goroutine it started has exited when it
// returns.
func (f *fleet) stop() {
	if f.front != nil {
		f.front.stop()
	}
	if f.sched != nil {
		f.sched.Close()
	}
	for _, r := range f.replicas {
		r.stop()
	}
}

// writeGraphs writes the generated graphs as .edges files, the input
// adjserved and adjproxy load with -graphs.
func writeGraphs(dir string, graphs map[string]*graph.Graph) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, g := range graphs {
		f, err := os.Create(filepath.Join(dir, name+".edges"))
		if err != nil {
			return err
		}
		if err := adjstream.WriteEdgeList(f, g); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// bootFleet deploys the workload from the edge files in dir and times it:
// catalog loads, replica and proxy boot, exact ground truth, and the
// hot-mix cache priming. tr, when set, installs the tracing middleware and
// the traced remote runner.
func bootFleet(p *plan, dir string, tr *tracer) (*fleet, error) {
	start := time.Now()
	f := &fleet{}
	var wrapFront, wrapReplica func(http.Handler) http.Handler
	if tr != nil {
		wrapFront, wrapReplica = tr.serveMiddleware, tr.shardMiddleware
	}
	if p.Workload == clusterProxy {
		urls := make([]string, clusterReplicas)
		for i := range urls {
			r, err := startNode(dir, p.BatchOps, serveConfig(nil, nil), wrapReplica)
			if err != nil {
				f.stop()
				return nil, err
			}
			f.replicas = append(f.replicas, r)
			urls[i] = r.url
		}
		sched, err := cluster.New(cluster.Config{
			Replicas:      urls,
			ShardTimeout:  10 * time.Second,
			Attempts:      3,
			ProbeInterval: 3 * time.Second,
			VirtualNodes:  64,
		})
		if err != nil {
			f.stop()
			return nil, err
		}
		f.sched = sched
		var remote serve.RemoteRunner = sched.Run
		if tr != nil {
			remote = tr.remote(sched.Run)
		}
		front, err := startNode(dir, p.BatchOps, serveConfig(remote, sched.Mutate), wrapFront)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.front = front
	} else {
		front, err := startNode(dir, p.BatchOps, serveConfig(nil, nil), wrapFront)
		if err != nil {
			return nil, err
		}
		f.front = front
	}

	tstart := time.Now()
	f.pinned = map[string]*serve.Dataset{}
	f.truth = map[string]truth{}
	for _, d := range p.Graphs {
		ds, ok := f.front.cat.Get(d.Name)
		if !ok {
			f.stop()
			return nil, fmt.Errorf("graph %q not loaded", d.Name)
		}
		f.pinned[d.Name] = ds
		f.truth[d.Name] = truth{Triangles: ds.Graph().Triangles(), FourCycles: ds.Graph().FourCycles()}
	}
	f.truthDur = time.Since(tstart)

	if p.Workload == hotMix {
		if err := f.prime(p); err != nil {
			f.stop()
			return nil, err
		}
	}
	f.setup = time.Since(start)
	return f, nil
}

// prime sends every hot-mix spec once, so the timed window sees only hits.
func (f *fleet) prime(p *plan) error {
	c := newClient(f.front.url, 1, nil)
	defer c.close()
	f.primed = make([]answer, len(p.Specs))
	for i, r := range p.Specs {
		res := c.read(context.Background(), r)
		if res.err != nil {
			return fmt.Errorf("priming spec %d: %w", i, res.err)
		}
		if res.cache != serve.CacheMiss {
			return fmt.Errorf("priming spec %d: X-Cache %q, want miss", i, res.cache)
		}
		f.primed[i] = res.ans
	}
	return nil
}
