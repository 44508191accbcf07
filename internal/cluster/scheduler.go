package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"adjstream"
	"adjstream/internal/serve"
	"adjstream/internal/stats"
	"adjstream/internal/stream"
)

// Config parameterizes a Scheduler. The zero value of every field except
// Replicas is usable; New fills in the defaults noted below.
type Config struct {
	// Replicas are the base URLs of the adjserved fleet, e.g.
	// "http://10.0.0.7:8356". At least one is required.
	Replicas []string
	// ShardTimeout bounds each individual shard attempt (default 10s).
	// The request's own deadline still bounds the whole run.
	ShardTimeout time.Duration
	// Attempts is how many replicas a shard tries before the run is
	// declared unschedulable (default 3, capped at the replica count).
	Attempts int
	// BackoffBase is the sleep before the first retry; it doubles per
	// attempt up to BackoffCap (defaults 50ms and 2s).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// HedgeAfter, when positive, launches a duplicate of a slow shard
	// attempt against the next replica after this delay; the first
	// success wins. Zero disables hedging.
	HedgeAfter time.Duration
	// ProbeInterval is how often every replica's /healthz is polled to
	// feed the ring's health view (default 3s; negative disables probes).
	ProbeInterval time.Duration
	// MaxShards caps how many shard calls one request fans out into
	// (default: the replica count).
	MaxShards int
	// VirtualNodes is the ring points per replica (default 64).
	VirtualNodes int
	// Client issues the HTTP requests (default http.DefaultClient).
	Client *http.Client
}

// Scheduler fans estimate requests out to an adjserved fleet as copy-range
// shard calls and merges the returned snapshot sets into the bit-identical
// single-node response. Its Run method satisfies serve.RemoteRunner, which
// is the whole integration surface: a serve.Server with Config.Remote set
// to Run is a cluster proxy, with the server's cache, coalescing, batch,
// and drain machinery working unchanged in front.
type Scheduler struct {
	cfg  Config
	ring *Ring
	tele schedTele
	stop chan struct{}
	done chan struct{}
}

// New builds a scheduler over cfg.Replicas and starts its health-probe
// loop. Close releases it.
func New(cfg Config) (*Scheduler, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("cluster: no replicas configured")
	}
	if cfg.ShardTimeout <= 0 {
		cfg.ShardTimeout = 10 * time.Second
	}
	if cfg.Attempts <= 0 {
		cfg.Attempts = 3
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = 2 * time.Second
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 3 * time.Second
	}
	if cfg.VirtualNodes <= 0 {
		cfg.VirtualNodes = 64
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	s := &Scheduler{
		cfg:  cfg,
		ring: NewRing(cfg.Replicas, cfg.VirtualNodes),
		tele: teleForScheduler(),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if cfg.MaxShards <= 0 {
		s.cfg.MaxShards = len(s.ring.Replicas())
	}
	s.tele.health(false, s.ring.HealthyCount())
	go s.probeLoop()
	return s, nil
}

// Close stops the probe loop. In-flight Run calls are unaffected.
func (s *Scheduler) Close() {
	close(s.stop)
	<-s.done
}

// Ring exposes the scheduler's health-tracking hash ring.
func (s *Scheduler) Ring() *Ring { return s.ring }

// setHealthy records a replica health observation in the ring and the
// telemetry gauges.
func (s *Scheduler) setHealthy(replica string, ok bool) {
	changed := s.ring.SetHealthy(replica, ok)
	s.tele.health(changed, s.ring.HealthyCount())
}

// probeLoop polls every replica's /healthz on ProbeInterval. A 200 marks
// the replica healthy; anything else (including a draining 503) unhealthy.
func (s *Scheduler) probeLoop() {
	defer close(s.done)
	if s.cfg.ProbeInterval < 0 {
		<-s.stop
		return
	}
	t := time.NewTicker(s.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		for _, rep := range s.ring.Replicas() {
			s.setHealthy(rep, s.probe(rep))
		}
	}
}

// probe checks one replica's /healthz under a bounded deadline.
func (s *Scheduler) probe(replica string) bool {
	timeout := s.cfg.ProbeInterval
	if s.cfg.ShardTimeout < timeout {
		timeout = s.cfg.ShardTimeout
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, replica+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := s.cfg.Client.Do(req)
	if err != nil {
		add(s.tele.probeFailures, 1)
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		add(s.tele.probeFailures, 1)
		return false
	}
	return true
}

// copiesOf mirrors adjstream's Options.copies(): Confidence wins, then
// Copies, then 1. The proxy needs the count up front to cut shard ranges.
func copiesOf(req serve.EstimateRequest) int {
	if req.Confidence > 0 {
		return stats.CopiesForConfidence(1 - req.Confidence)
	}
	if req.Copies == 0 {
		return 1
	}
	return req.Copies
}

// shardRange is one contiguous copy range assigned to the fan-out.
type shardRange struct{ lo, hi int }

// cutShards splits k copies into at most n balanced contiguous ranges.
func cutShards(k, n int) []shardRange {
	if n > k {
		n = k
	}
	if n < 1 {
		n = 1
	}
	out := make([]shardRange, n)
	for i := 0; i < n; i++ {
		out[i] = shardRange{lo: i * k / n, hi: (i + 1) * k / n}
	}
	return out
}

// Run schedules one estimation across the fleet and merges the result. It
// satisfies serve.RemoteRunner: kind is "estimate" or "distinguish", req
// the original validated request. Failures that exhaust every replica
// return an error wrapping serve.ErrRemoteUnavailable so the server can
// degrade to local execution; context errors propagate as themselves so
// cancellation is never mistaken for replica failure.
func (s *Scheduler) Run(ctx context.Context, kind string, req serve.EstimateRequest, ds *serve.Dataset) (serve.EstimateResponse, error) {
	start := time.Now()
	add(s.tele.requests, 1)

	// Ship the estimate-shaped spec: distinguish requests run their
	// derived estimator on the replicas; the decision bit is recovered
	// from the merged estimate below. The spec pins the proxy's snapshot
	// version so every shard of this run — across replicas, retries, and
	// hedges — executes against the same immutable graph even while
	// ingestion advances the fleet.
	base := serve.ShardRequest{EstimateRequest: serve.DeriveEstimate(kind, req)}
	if ds != nil {
		base.GraphVersion = ds.Version()
		base.GraphFingerprint = fmt.Sprintf("%016x", ds.Fingerprint())
	}
	k := copiesOf(base.EstimateRequest)
	prefer := s.ring.Prefer(req.Graph)
	if len(prefer) == 0 {
		add(s.tele.fallbackLocal, 1)
		return serve.EstimateResponse{}, fmt.Errorf("%w: no replicas", serve.ErrRemoteUnavailable)
	}
	shards := cutShards(k, s.cfg.MaxShards)

	type shardResult struct {
		rng   shardRange
		snaps []adjstream.CopySnapshot
		err   error
	}
	results := make(chan shardResult, len(shards))
	for i, rng := range shards {
		go func(i int, rng shardRange) {
			snaps, err := s.runShard(ctx, base, rng, prefer, i)
			results <- shardResult{rng, snaps, err}
		}(i, rng)
	}

	all := make([]adjstream.CopySnapshot, k)
	var firstErr error
	for range shards {
		r := <-results
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		copy(all[r.rng.lo:r.rng.hi], r.snaps)
	}
	if firstErr != nil {
		if ctx.Err() != nil {
			return serve.EstimateResponse{}, ctx.Err()
		}
		add(s.tele.fallbackLocal, 1)
		return serve.EstimateResponse{}, fmt.Errorf("%w: %w", serve.ErrRemoteUnavailable, firstErr)
	}

	res, err := adjstream.MergeSnapshots(all)
	if err != nil {
		add(s.tele.fallbackLocal, 1)
		return serve.EstimateResponse{}, fmt.Errorf("%w: merge: %w", serve.ErrRemoteUnavailable, err)
	}

	// Mirror serve's single-node response exactly (modulo ElapsedMS):
	// the original request's Algorithm (empty for distinguish), the
	// broadcast driver only for parallel multi-copy runs, and the
	// decision bit recovered the way DistinguishContext derives it.
	resp := serve.EstimateResponse{
		Graph:            req.Graph,
		Algorithm:        req.Algorithm,
		Estimate:         res.Estimate,
		SpaceWords:       res.SpaceWords,
		Passes:           res.Passes,
		M:                res.M,
		Copies:           res.Copies,
		Seed:             req.EffectiveSeed(),
		GraphVersion:     base.GraphVersion,
		GraphFingerprint: base.GraphFingerprint,
		ElapsedMS:        float64(time.Since(start)) / float64(time.Millisecond),
	}
	if base.Parallel && k > 1 {
		resp.Driver = string(adjstream.DriverBroadcast)
	}
	if kind == "distinguish" {
		found := res.Estimate > 0
		resp.Found = &found
	}
	return resp, nil
}

// runShard executes one copy range, rotating through the preference order
// with capped exponential backoff between attempts. shardIdx staggers the
// primary so concurrent shards of one request land on different replicas.
func (s *Scheduler) runShard(ctx context.Context, base serve.ShardRequest, rng shardRange, prefer []string, shardIdx int) ([]adjstream.CopySnapshot, error) {
	attempts := s.cfg.Attempts
	if attempts > len(prefer) {
		attempts = len(prefer)
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			add(s.tele.shardRetries, 1)
			backoff := s.cfg.BackoffBase << (attempt - 1)
			if backoff > s.cfg.BackoffCap {
				backoff = s.cfg.BackoffCap
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(backoff):
			}
		}
		primary := prefer[(shardIdx+attempt)%len(prefer)]
		next := prefer[(shardIdx+attempt+1)%len(prefer)]
		snaps, err := s.attemptWithHedge(ctx, base, rng, primary, next)
		if err == nil {
			return snaps, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	add(s.tele.shardFailures, 1)
	return nil, fmt.Errorf("shard [%d,%d) failed after %d attempts: %w", rng.lo, rng.hi, attempts, lastErr)
}

// attemptWithHedge posts the shard to primary and, if HedgeAfter elapses
// first, duplicates it to alt; the first success wins and the loser's
// context is canceled. With hedging disabled (or no distinct alternate) it
// is a single post.
func (s *Scheduler) attemptWithHedge(ctx context.Context, base serve.ShardRequest, rng shardRange, primary, alt string) ([]adjstream.CopySnapshot, error) {
	if s.cfg.HedgeAfter <= 0 || alt == primary {
		return s.post(ctx, base, rng, primary)
	}
	hedgeCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		snaps  []adjstream.CopySnapshot
		err    error
		hedged bool
	}
	results := make(chan outcome, 2)
	launch := func(replica string, hedged bool) {
		snaps, err := s.post(hedgeCtx, base, rng, replica)
		results <- outcome{snaps, err, hedged}
	}
	go launch(primary, false)
	timer := time.NewTimer(s.cfg.HedgeAfter)
	defer timer.Stop()
	inflight := 1
	for {
		select {
		case <-timer.C:
			add(s.tele.hedgeLaunched, 1)
			inflight++
			go launch(alt, true)
		case r := <-results:
			if r.err == nil {
				if r.hedged {
					add(s.tele.hedgeWins, 1)
				}
				return r.snaps, nil
			}
			if inflight--; inflight == 0 {
				return nil, r.err
			}
			// The other leg is still running; wait for it.
		}
	}
}

// post sends one POST /v1/shard and decodes the snapshot-set response,
// verifying it covers exactly the requested range. Any failure marks the
// replica unhealthy in the ring; a success marks it healthy.
func (s *Scheduler) post(ctx context.Context, base serve.ShardRequest, rng shardRange, replica string) ([]adjstream.CopySnapshot, error) {
	add(s.tele.shardRequests, 1)
	base.CopyLo, base.CopyHi = rng.lo, rng.hi
	body, err := json.Marshal(base)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, s.cfg.ShardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, replica+"/v1/shard", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := s.cfg.Client.Do(req)
	if err != nil {
		s.setHealthy(replica, false)
		return nil, fmt.Errorf("%s: %w", replica, err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		s.setHealthy(replica, false)
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("%s: shard status %d: %s", replica, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if ct := resp.Header.Get("Content-Type"); ct != stream.SnapshotSetContentType {
		s.setHealthy(replica, false)
		return nil, fmt.Errorf("%s: shard content type %q", replica, ct)
	}
	indices, snaps, err := stream.ReadSnapshotSet(io.LimitReader(resp.Body, stream.MaxSnapshotSetBytes))
	if err != nil {
		s.setHealthy(replica, false)
		return nil, fmt.Errorf("%s: %w", replica, err)
	}
	if len(indices) != rng.hi-rng.lo {
		s.setHealthy(replica, false)
		return nil, fmt.Errorf("%s: shard returned %d snapshots, want %d", replica, len(indices), rng.hi-rng.lo)
	}
	for i, idx := range indices {
		if idx != rng.lo+i {
			s.setHealthy(replica, false)
			return nil, fmt.Errorf("%s: shard snapshot %d has index %d, want %d", replica, i, idx, rng.lo+i)
		}
	}
	s.setHealthy(replica, true)
	s.tele.observeRTT(time.Since(start))
	return snaps, nil
}

// Mutate forwards one edge-batch body verbatim to every replica's
// POST /v1/graphs/{graph}/edges, concurrently, and returns the first
// failure (nil when the whole fleet accepted it). It satisfies
// serve.Config.RemoteIngest. Bodies are forwarded byte-identically and
// batches are idempotent by batch id, so the client retry that follows a
// partial failure converges every replica onto the same version history
// — replicas that already applied the batch replay their recorded
// response, the ones that missed it apply now.
func (s *Scheduler) Mutate(ctx context.Context, graph string, body []byte) error {
	add(s.tele.mutateRequests, 1)
	replicas := s.ring.Replicas()
	errs := make(chan error, len(replicas))
	for _, rep := range replicas {
		go func(rep string) {
			errs <- s.postMutation(ctx, graph, rep, body)
		}(rep)
	}
	var firstErr error
	for range replicas {
		if err := <-errs; err != nil {
			add(s.tele.mutateFailures, 1)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// postMutation sends one edge batch to one replica under the shard
// timeout. Transport failures mark the replica unhealthy; HTTP-level
// rejections (a replica refusing an op) do not — the replica is alive
// and the divergence must surface to the operator, not hide behind the
// health view.
func (s *Scheduler) postMutation(ctx context.Context, graph, replica string, body []byte) error {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.ShardTimeout)
	defer cancel()
	u := replica + "/v1/graphs/" + url.PathEscape(graph) + "/edges"
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.cfg.Client.Do(req)
	if err != nil {
		s.setHealthy(replica, false)
		return fmt.Errorf("%s: %w", replica, err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: ingest status %d: %s", replica, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return nil
}
