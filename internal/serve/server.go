package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"adjstream"
)

// ErrDraining reports that the server is shutting down and admits no new
// estimation work; the HTTP layer maps it to 503.
var ErrDraining = errors.New("serve: draining")

// StatusClientClosedRequest is the (nginx-conventional) status reported
// when the client disconnected before its run finished; the response is
// never seen, but the access log and metrics keep an honest record.
const StatusClientClosedRequest = 499

// Config tunes a Server. The zero value selects every default.
type Config struct {
	// Workers bounds concurrent estimation requests (default GOMAXPROCS).
	Workers int
	// Queue bounds admitted requests waiting for a worker slot beyond the
	// slots themselves (default 2×Workers; 0 disables queueing so every
	// excess request is rejected immediately).
	Queue int
	// MaxTimeout caps per-request deadlines and applies when a request
	// asks for none (default 30s).
	MaxTimeout time.Duration
	// RetryAfter is the Retry-After hint attached to 429 responses
	// (default 1s, rounded up to whole seconds on the wire).
	RetryAfter time.Duration
	// CacheEntries bounds the result cache (total entries across its
	// shards): 0 selects the default (4096), negative disables the cache
	// and its request coalescing entirely.
	CacheEntries int
	// CacheTTL expires cached results by age; 0 keeps entries until LRU
	// eviction.
	CacheTTL time.Duration
	// Remote, when set, executes estimations through it instead of the
	// local pool — the proxy half of cluster mode (internal/cluster's
	// scheduler). The result cache and coalescing sit in front of it
	// unchanged: remote responses are byte-identical to local ones. When a
	// remote run fails with an error wrapping ErrRemoteUnavailable, the
	// server degrades gracefully to the local pool+library path unless
	// NoLocalFallback is set.
	Remote RemoteRunner
	// NoLocalFallback disables the local-execution fallback when Remote is
	// set and unavailable; the request then fails with 503.
	NoLocalFallback bool
	// RemoteIngest, when set, forwards each accepted edge batch (its raw
	// JSON body) to the rest of the fleet after the local apply — the proxy
	// half of cluster-mode ingestion. An error surfaces to the client as
	// 503 remote_unavailable; batches are idempotent by batch id, so the
	// client's retry converges every replica.
	RemoteIngest func(ctx context.Context, graph string, body []byte) error

	// testHookRun, when set, runs inside the worker slot before the
	// estimation starts — the test seam for deterministic saturation,
	// cancellation, and drain tests.
	testHookRun func(ctx context.Context)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 0 // NewPool resolves GOMAXPROCS
	}
	if c.Queue == 0 {
		c.Queue = -1 // NewPool resolves 2×workers
	} else if c.Queue < 0 {
		c.Queue = 0
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	return c
}

// Server is the estimation service: a catalog of loaded graphs behind the
// HTTP/JSON API, with every estimation admitted through the bounded pool
// and run under a context that carries the request deadline and client
// connection.
type Server struct {
	cat   *Catalog
	cfg   Config
	pool  *Pool
	cache *Cache // nil when disabled

	draining atomic.Bool
}

// EstimateRequest is the body of POST /v1/estimate and POST /v1/distinguish.
// For /v1/estimate, Algorithm selects the estimator and CycleLen is the
// cycle length for "exact". For /v1/distinguish, CycleLen is the decision
// problem's cycle length (default 3) and Algorithm must be empty — the
// service derives it, exactly as adjstream.DistinguishContext does.
type EstimateRequest struct {
	// Graph names a catalog dataset.
	Graph string `json:"graph"`
	// Model selects the streaming model: "adjacency-list" (the default,
	// also selected by an absent field) or "arbitrary", which replays the
	// dataset as an arbitrary-order edge stream (first occurrence of each
	// edge in the selected stream order). Estimate only; distinguish always
	// runs the adjacency-list model.
	Model string `json:"model,omitempty"`
	// Algorithm selects the estimator (see adjstream.AlgorithmsForModel).
	Algorithm string `json:"algorithm,omitempty"`
	// SampleSize is the bottom-k edge budget m′.
	SampleSize int `json:"sample_size,omitempty"`
	// SampleProb is the per-edge sampling probability.
	SampleProb float64 `json:"sample_prob,omitempty"`
	// PairCap bounds the candidate pair/wedge reservoir.
	PairCap int `json:"pair_cap,omitempty"`
	// CycleLen is the cycle length (see the struct comment).
	CycleLen int `json:"cycle_len,omitempty"`
	// Copies runs median-of-k amplification.
	Copies int `json:"copies,omitempty"`
	// Confidence derives Copies from δ = 1-Confidence.
	Confidence float64 `json:"confidence,omitempty"`
	// Parallel runs up to min(copies, GOMAXPROCS) copies at once.
	Parallel bool `json:"parallel,omitempty"`
	// Driver is empty or "broadcast", the one parallel driver; any other
	// value is rejected as invalid_options.
	Driver string `json:"driver,omitempty"`
	// Seed drives all randomness deterministically. A nil Seed selects the
	// server default (0). The pointer matters: with a plain uint64 an
	// explicit "seed": 0 would be indistinguishable from an absent field,
	// making the effective seed — and therefore the cache key and any
	// client-side reproduction — ambiguous. The response always echoes the
	// seed that actually ran.
	Seed *uint64 `json:"seed,omitempty"`
	// Order is the stream order: "sorted" (default, cached) or "random"
	// (materialized per request from Seed).
	Order string `json:"order,omitempty"`
	// TimeoutMS bounds this request's wall time; 0 means the server
	// maximum. Values above the server maximum are clamped to it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// EffectiveSeed resolves the seed that actually runs: the request's when
// given (including an explicit 0), the server default otherwise.
func (r EstimateRequest) EffectiveSeed() uint64 {
	if r.Seed != nil {
		return *r.Seed
	}
	return 0
}

// options maps the wire request onto adjstream.Options.
func (r EstimateRequest) options() adjstream.Options {
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

// validate applies the full pre-admission validation — the stream-order
// check, the distinguish derivation rules, and the same Options.Validate
// the run itself will apply — so a malformed or misaddressed request is
// rejected before it can consume a bounded worker slot.
func (r EstimateRequest) validate(kind string) error {
	switch r.Order {
	case "", "sorted", "random":
	default:
		return fmt.Errorf("%w: unknown order %q (want sorted or random)", adjstream.ErrInvalidOptions, r.Order)
	}
	if kind != "distinguish" {
		return r.options().Validate()
	}
	if r.Algorithm != "" {
		return fmt.Errorf("%w: Distinguish derives Algorithm from cycle_len; leave it empty", adjstream.ErrInvalidOptions)
	}
	if r.CycleLen != 0 && r.CycleLen < 3 {
		return fmt.Errorf("%w: cycle length %d < 3", adjstream.ErrInvalidOptions, r.CycleLen)
	}
	// Validate the options the run will actually use — the same derivation
	// DistinguishContext applies (and the proxy ships to shard replicas).
	return DeriveEstimate(kind, r).options().Validate()
}

// key builds the canonical cache identity of this request against the
// pinned dataset snapshot. Both the content fingerprint and the version
// number participate: the fingerprint re-keys the cache whenever the
// edges behind a name change, and the version keeps the echoed
// graph_version in cached responses exact even when two versions happen
// to share content — so the cache never serves a result across a version
// bump, by construction.
func (r EstimateRequest) key(kind string, ds *Dataset) cacheKey {
	return cacheKey{
		kind:        kind,
		graph:       r.Graph,
		fingerprint: ds.Fingerprint(),
		version:     ds.Version(),
		model:       r.Model,
		algorithm:   r.Algorithm,
		sampleSize:  r.SampleSize,
		sampleProb:  r.SampleProb,
		pairCap:     r.PairCap,
		cycleLen:    r.CycleLen,
		copies:      r.Copies,
		confidence:  r.Confidence,
		parallel:    r.Parallel,
		seed:        r.EffectiveSeed(),
		order:       r.Order,
	}
}

// EstimateResponse is the body of a successful estimate or distinguish.
// Seed is always present: it is the seed that actually ran (the request's,
// or the server default when the request carried none), so any response
// can be reproduced client-side or re-requested cache-identically.
type EstimateResponse struct {
	Graph string `json:"graph"`
	// Model echoes the request's streaming model, verbatim (absent when the
	// request selected the adjacency-list default by omission).
	Model      string  `json:"model,omitempty"`
	Algorithm  string  `json:"algorithm,omitempty"`
	Found      *bool   `json:"found,omitempty"` // distinguish only
	Estimate   float64 `json:"estimate"`
	SpaceWords int64   `json:"space_words"`
	Passes     int     `json:"passes"`
	M          int64   `json:"m"`
	Copies     int     `json:"copies"`
	Driver     string  `json:"driver,omitempty"`
	Seed       uint64  `json:"seed"`
	// GraphVersion and GraphFingerprint identify the exact immutable
	// snapshot this result ran against, so clients can detect when two
	// responses compare different versions of a mutating graph.
	GraphVersion     uint64  `json:"graph_version"`
	GraphFingerprint string  `json:"graph_fingerprint"`
	ElapsedMS        float64 `json:"elapsed_ms"`
}

// BatchRequest is the body of POST /v1/estimate/batch: many estimate specs
// admitted as a unit (pure cache-hit batches bypass admission entirely;
// everything else shares one worker slot).
type BatchRequest struct {
	Requests []EstimateRequest `json:"requests"`
}

// BatchItem is one element of a batch response. Exactly one of Result and
// Error is set; Status is the HTTP status this item would have received as
// a standalone request, so one bad spec never fails its batch. Error uses
// the same {"code","message"} shape as the top-level envelope.
type BatchItem struct {
	Result *EstimateResponse `json:"result,omitempty"`
	Error  *ErrorDetail      `json:"error,omitempty"`
	Status int               `json:"status"`
	Cache  string            `json:"cache,omitempty"`
}

// BatchResponse is the body of a batch request that was decoded and
// answered (always 200; per-item failures live in the items).
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

// maxBatchItems bounds one batch body; larger batches are rejected with
// 400 rather than pinning a worker slot for an unbounded run sequence.
const maxBatchItems = 256

// ErrorDetail is the machine-readable error payload: a stable code from
// the error taxonomy plus a human-oriented message. Clients dispatch on
// Code; Message wording is not part of the API contract.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorResponse is the body of every non-2xx response: the unified
// envelope {"error":{"code","message"}}.
type ErrorResponse struct {
	Error ErrorDetail `json:"error"`
}

// GraphsResponse is the body of GET /v1/graphs.
type GraphsResponse struct {
	Graphs []Info `json:"graphs"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status   string `json:"status"`
	Graphs   int    `json:"graphs"`
	InFlight int    `json:"in_flight"`
	Waiting  int    `json:"waiting"`
}

// New returns a server over cat.
func New(cat *Catalog, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cat:  cat,
		cfg:  cfg,
		pool: NewPool(cfg.Workers, cfg.Queue),
	}
	if cfg.CacheEntries > 0 {
		s.cache = NewCache(cfg.CacheEntries, cfg.CacheTTL)
	}
	return s
}

// Pool exposes the admission pool (read-only use: occupancy, counters).
func (s *Server) Pool() *Pool { return s.pool }

// ResultCache exposes the result cache (nil when disabled); read-only use.
func (s *Server) ResultCache() *Cache { return s.cache }

// SetDraining flips drain mode: when on, /healthz fails and new estimation
// work is rejected with 503 while in-flight requests run to completion.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports drain mode.
func (s *Server) Draining() bool { return s.draining.Load() }

// DrainWait waits until no request holds or waits for a worker slot, or
// until ctx fires. Call SetDraining(true) first so the pool can only empty.
func (s *Server) DrainWait(ctx context.Context) error {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.pool.Idle() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/estimate", func(w http.ResponseWriter, r *http.Request) {
		s.handleRun(w, r, "estimate")
	})
	mux.HandleFunc("/v1/distinguish", func(w http.ResponseWriter, r *http.Request) {
		s.handleRun(w, r, "distinguish")
	})
	mux.HandleFunc("/v1/estimate/batch", s.handleBatch)
	mux.HandleFunc("/v1/shard", s.handleShard)
	// The graphs resource dispatches on path shape and method itself (list,
	// detail, edge ingestion) — both patterns route to the same dispatcher.
	mux.HandleFunc("/v1/graphs", s.handleGraphsResource)
	mux.HandleFunc("/v1/graphs/", s.handleGraphsResource)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// statusOf maps service and facade sentinel errors to HTTP statuses. The
// deadline check precedes the cancellation check: ErrCanceled wraps the
// context cause, and an expired deadline is a server-visible timeout (504)
// while a bare cancellation means the client went away (499).
func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrUnknownGraph):
		return http.StatusNotFound
	case errors.Is(err, ErrVersionGone):
		return http.StatusConflict
	case errors.Is(err, ErrSaturated):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining), errors.Is(err, ErrRemoteUnavailable):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrInvalidEdgeOp),
		errors.Is(err, adjstream.ErrUnknownAlgorithm),
		errors.Is(err, adjstream.ErrInvalidOptions):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled), errors.Is(err, adjstream.ErrCanceled):
		return StatusClientClosedRequest
	default:
		return http.StatusInternalServerError
	}
}

// codeOf maps the same error taxonomy to the stable machine-readable
// codes carried in the error envelope. Check order mirrors statusOf;
// codes are finer-grained than statuses where one status covers several
// conditions (503 splits into draining / remote_unavailable).
func codeOf(err error) string {
	switch {
	case errors.Is(err, ErrUnknownGraph):
		return "unknown_graph"
	case errors.Is(err, ErrVersionGone):
		return "version_unavailable"
	case errors.Is(err, ErrSaturated):
		return "saturated"
	case errors.Is(err, ErrDraining):
		return "draining"
	case errors.Is(err, ErrRemoteUnavailable):
		return "remote_unavailable"
	case errors.Is(err, ErrInvalidEdgeOp):
		return "invalid_edge_op"
	case errors.Is(err, adjstream.ErrUnknownAlgorithm):
		return "unknown_algorithm"
	case errors.Is(err, adjstream.ErrInvalidOptions):
		return "invalid_options"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline_exceeded"
	case errors.Is(err, context.Canceled), errors.Is(err, adjstream.ErrCanceled):
		return "canceled"
	default:
		return "internal"
	}
}

// errDetail builds the envelope payload for err.
func errDetail(err error) *ErrorDetail {
	return &ErrorDetail{Code: codeOf(err), Message: err.Error()}
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encode failures at this point can only be connection errors; the
	// status line is already on the wire either way.
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes the JSON error body for err, attaching Retry-After on
// saturation.
func (s *Server) writeError(w http.ResponseWriter, err error) int {
	status := statusOf(err)
	if status == http.StatusTooManyRequests {
		secs := int((s.cfg.RetryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSON(w, status, ErrorResponse{Error: *errDetail(err)})
	return status
}

// writeMethodNotAllowed writes the 405 envelope with the Allow header.
func writeMethodNotAllowed(w http.ResponseWriter, allow string) int {
	w.Header().Set("Allow", allow)
	writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: ErrorDetail{
		Code:    "method_not_allowed",
		Message: allow + " only",
	}})
	return http.StatusMethodNotAllowed
}

// handleRun is the shared estimate/distinguish path: decode, validate
// (before admission, so malformed or misaddressed requests never consume
// a worker slot), then cache lookup / coalesced or fresh run, error
// mapping. The X-Cache response header reports how the result was
// obtained (hit, miss, coalesced, or bypass).
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request, kind string) {
	tt := teleForEndpoint(kind)
	start := time.Now()
	status := http.StatusOK
	defer func() { tt.end(start, status) }()

	if r.Method != http.MethodPost {
		status = writeMethodNotAllowed(w, http.MethodPost)
		return
	}
	if s.draining.Load() {
		status = s.writeError(w, ErrDraining)
		return
	}
	var req EstimateRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		status = s.writeError(w, fmt.Errorf("%w: %w", adjstream.ErrInvalidOptions, err))
		return
	}
	if err := req.validate(kind); err != nil {
		status = s.writeError(w, err)
		return
	}
	ds, ok := s.cat.Get(req.Graph)
	if !ok {
		status = s.writeError(w, fmt.Errorf("%w %q", ErrUnknownGraph, req.Graph))
		return
	}

	resp, outcome, err := s.runOne(r.Context(), kind, req, ds)
	if err != nil {
		status = s.writeError(w, err)
		return
	}
	w.Header().Set("X-Cache", string(outcome))
	writeJSON(w, http.StatusOK, resp)
}

// timeoutFor resolves a request's wall-time budget: its own timeout_ms,
// clamped to the server maximum.
func (s *Server) timeoutFor(req EstimateRequest) time.Duration {
	d := s.cfg.MaxTimeout
	if req.TimeoutMS > 0 {
		if t := time.Duration(req.TimeoutMS) * time.Millisecond; t < d {
			d = t
		}
	}
	return d
}

// runOne produces the response for one validated request spec. With the
// cache enabled it goes through Cache.Do — cache hit, coalesced wait on an
// identical in-progress run, or a fresh leader run that populates the
// cache. The caller's wait is bounded by its own context (client
// connection + request deadline); a coalesced run itself is bounded by
// the server maximum and survives individual waiters abandoning.
func (s *Server) runOne(ctx context.Context, kind string, req EstimateRequest, ds *Dataset) (EstimateResponse, CacheOutcome, error) {
	ctx, cancel := context.WithTimeout(ctx, s.timeoutFor(req))
	defer cancel()
	if s.cache == nil {
		resp, err := s.dispatch(ctx, kind, req, ds)
		return resp, CacheBypass, err
	}
	return s.cache.Do(ctx, req.key(kind, ds), s.cfg.MaxTimeout,
		func(runCtx context.Context) (EstimateResponse, error) {
			return s.dispatch(runCtx, kind, req, ds)
		})
}

// dispatch routes one fresh run: through the configured remote runner when
// cluster mode is on (shard fan-out is network-bound, so it bypasses the
// local worker pool — the replicas run their own admission), degrading to
// the local pool+library path when the remote reports itself unavailable,
// unless that fallback is disabled.
func (s *Server) dispatch(ctx context.Context, kind string, req EstimateRequest, ds *Dataset) (EstimateResponse, error) {
	if s.cfg.Remote != nil {
		resp, err := s.cfg.Remote(ctx, kind, req, ds)
		if err == nil || !errors.Is(err, ErrRemoteUnavailable) || s.cfg.NoLocalFallback {
			return resp, err
		}
	}
	return s.admitAndRun(ctx, kind, req, ds)
}

// admitAndRun acquires a worker slot under ctx and runs the estimation.
func (s *Server) admitAndRun(ctx context.Context, kind string, req EstimateRequest, ds *Dataset) (EstimateResponse, error) {
	release, err := s.pool.Acquire(ctx)
	if err != nil {
		return EstimateResponse{}, err
	}
	defer release()
	return s.run(ctx, kind, req, ds)
}

// run executes the estimation under ctx; the caller holds a worker slot.
func (s *Server) run(ctx context.Context, kind string, req EstimateRequest, ds *Dataset) (EstimateResponse, error) {
	start := time.Now()
	if s.cfg.testHookRun != nil {
		s.cfg.testHookRun(ctx)
	}
	st, err := ds.Stream(req.Order, req.EffectiveSeed())
	if err != nil {
		return EstimateResponse{}, err
	}
	var res adjstream.Result
	switch kind {
	case "estimate":
		res, err = adjstream.EstimateContext(ctx, st, req.options())
	default: // distinguish
		cycleLen := req.CycleLen
		if cycleLen == 0 {
			cycleLen = 3
		}
		opts := req.options()
		opts.CycleLen = 0 // derived from cycleLen by DistinguishContext
		_, res, err = adjstream.DistinguishContext(ctx, st, cycleLen, opts)
	}
	if err != nil {
		return EstimateResponse{}, err
	}
	return NewEstimateResponse(kind, req, ds, res, start), nil
}

// NewEstimateResponse builds the body of a successful run from its Result —
// the one place the single-node, batch-family and cluster paths turn a
// Result into a response, so their bodies agree byte for byte (elapsed time
// aside). kind is "estimate" or "distinguish", req the request as the
// client sent it, ds the graph version the run pinned (nil leaves the
// version fields zero) and start the time the run began. The driver echo
// and the distinguish decision derive from req and res alone, since a
// Result merged from shards does not record how its shards ran.
func NewEstimateResponse(kind string, req EstimateRequest, ds *Dataset, res adjstream.Result, start time.Time) EstimateResponse {
	resp := EstimateResponse{
		Graph:      req.Graph,
		Model:      req.Model,
		Algorithm:  req.Algorithm,
		Estimate:   res.Estimate,
		SpaceWords: res.SpaceWords,
		Passes:     res.Passes,
		M:          res.M,
		Copies:     res.Copies,
		Seed:       req.EffectiveSeed(),
		ElapsedMS:  float64(time.Since(start)) / float64(time.Millisecond),
	}
	if ds != nil {
		resp.GraphVersion = ds.Version()
		resp.GraphFingerprint = fmt.Sprintf("%016x", ds.Fingerprint())
	}
	// The echo names the broadcast driver for parallel multi-copy
	// adjacency-list runs, as Result.Driver does.
	if req.Parallel && res.Copies > 1 && adjstream.Model(req.Model) != adjstream.ModelArbitrary {
		resp.Driver = string(adjstream.DriverBroadcast)
	}
	if kind == "distinguish" {
		found := res.Estimate > 0 // the decision DistinguishContext makes
		resp.Found = &found
	}
	return resp
}

// handleBatch serves POST /v1/estimate/batch: many estimate specs in one
// body, answered per-item so one bad spec cannot fail the others. The
// batch is admitted as a unit — items answerable from the cache are
// resolved before admission, and every remaining run shares a single
// worker slot (items run sequentially under it, each bounded by its own
// timeout_ms). Batch items populate the cache but do not join in-progress
// flights of concurrent requests: the batch already holds a slot, and
// waiting on another request's admission from inside it could deadlock a
// small pool.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	tt := teleForEndpoint("batch")
	start := time.Now()
	status := http.StatusOK
	defer func() { tt.end(start, status) }()

	if r.Method != http.MethodPost {
		status = writeMethodNotAllowed(w, http.MethodPost)
		return
	}
	if s.draining.Load() {
		status = s.writeError(w, ErrDraining)
		return
	}
	var batch BatchRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&batch); err != nil {
		status = s.writeError(w, fmt.Errorf("%w: %w", adjstream.ErrInvalidOptions, err))
		return
	}
	if len(batch.Requests) == 0 {
		status = s.writeError(w, fmt.Errorf("%w: empty batch", adjstream.ErrInvalidOptions))
		return
	}
	if len(batch.Requests) > maxBatchItems {
		status = s.writeError(w, fmt.Errorf("%w: batch of %d exceeds the %d-item limit",
			adjstream.ErrInvalidOptions, len(batch.Requests), maxBatchItems))
		return
	}

	// Phase 1 (pre-admission): validate every spec and serve what the
	// cache already holds. Only specs that need a fresh run go on to
	// admission.
	items := make([]BatchItem, len(batch.Requests))
	datasets := make([]*Dataset, len(batch.Requests))
	var pending []int
	for i, req := range batch.Requests {
		if err := req.validate("estimate"); err != nil {
			items[i] = BatchItem{Error: errDetail(err), Status: statusOf(err)}
			continue
		}
		ds, ok := s.cat.Get(req.Graph)
		if !ok {
			err := fmt.Errorf("%w %q", ErrUnknownGraph, req.Graph)
			items[i] = BatchItem{Error: errDetail(err), Status: statusOf(err)}
			continue
		}
		datasets[i] = ds
		if s.cache != nil {
			if resp, ok := s.cache.Get(req.key("estimate", ds)); ok {
				r := resp
				items[i] = BatchItem{Result: &r, Status: http.StatusOK, Cache: string(CacheHit)}
				continue
			}
		}
		pending = append(pending, i)
	}

	// Phase 2: one admission covers every fresh run in the batch. Pending
	// items that are the same parallel median run except for the copy count
	// form a family: one shard run of the largest count produces per-copy
	// snapshots, and each member's result is merged from its prefix — the
	// per-copy seed schedule depends only on the seed and the copy index,
	// so the prefix merge is byte-identical to the standalone run.
	if len(pending) > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.MaxTimeout)
		defer cancel()
		release, err := s.pool.Acquire(ctx)
		if err != nil {
			for _, i := range pending {
				items[i] = BatchItem{Error: errDetail(err), Status: statusOf(err)}
			}
		} else {
			defer release()
			solo := pending
			if s.cache != nil && s.cfg.Remote == nil {
				// Families need the cache only to publish results; group
				// regardless, but keep the grouping off the bypass path so
				// outcomes stay accurate there. In cluster mode items go to
				// the remote runner individually — the scheduler already
				// shards each run's copies across the fleet.
				solo = s.batchRunFamilies(ctx, batch.Requests, pending, datasets, items)
			}
			for _, i := range solo {
				items[i] = s.batchRun(ctx, batch.Requests[i], datasets[i])
			}
		}
	}
	writeJSON(w, http.StatusOK, BatchResponse{Results: items})
}

// batchRunFamilies runs every copy-count family among the pending items and
// fills in their responses, returning the items left for individual runs. A
// family is ≥2 items identical in every option but Copies (Parallel, more
// than one copy, no Confidence — the shapes whose per-copy seeds are
// independent of the copy count).
func (s *Server) batchRunFamilies(ctx context.Context, reqs []EstimateRequest, pending []int, datasets []*Dataset, items []BatchItem) (solo []int) {
	groups := make(map[cacheKey][]int)
	order := make([]cacheKey, 0, len(pending))
	for _, i := range pending {
		req := reqs[i]
		if !req.Parallel || req.Copies <= 1 || req.Confidence != 0 {
			solo = append(solo, i)
			continue
		}
		key := req.key("estimate", datasets[i])
		key.copies = 0
		if _, seen := groups[key]; !seen {
			order = append(order, key)
		}
		groups[key] = append(groups[key], i)
	}
	for _, key := range order {
		idxs := groups[key]
		if len(idxs) < 2 {
			solo = append(solo, idxs...)
			continue
		}
		s.batchRunFamily(ctx, reqs, idxs, datasets[idxs[0]], items)
	}
	return solo
}

// batchRunFamily executes one copy-count family: a single shard run of the
// largest requested copy count, then a per-item prefix merge. Each member's
// response matches its standalone run byte-for-byte (except elapsed time).
func (s *Server) batchRunFamily(ctx context.Context, reqs []EstimateRequest, idxs []int, ds *Dataset, items []BatchItem) {
	kmax := 0
	var tmax time.Duration
	for _, i := range idxs {
		if reqs[i].Copies > kmax {
			kmax = reqs[i].Copies
		}
		if t := s.timeoutFor(reqs[i]); t > tmax {
			tmax = t
		}
	}
	fctx, cancel := context.WithTimeout(ctx, tmax)
	defer cancel()
	start := time.Now()
	base := reqs[idxs[0]]
	fail := func(err error) {
		for _, i := range idxs {
			items[i] = BatchItem{Error: errDetail(err), Status: statusOf(err)}
		}
	}
	st, err := ds.Stream(base.Order, base.EffectiveSeed())
	if err != nil {
		fail(err)
		return
	}
	opts := base.options()
	opts.Copies = kmax
	snaps, err := adjstream.EstimateShardContext(fctx, st, opts, 0, kmax)
	if err != nil {
		fail(err)
		return
	}
	for _, i := range idxs {
		res, err := adjstream.MergeSnapshots(snaps[:reqs[i].Copies])
		if err != nil {
			items[i] = BatchItem{Error: errDetail(err), Status: statusOf(err)}
			continue
		}
		resp := NewEstimateResponse("estimate", reqs[i], ds, res, start)
		if s.cache != nil {
			s.cache.Put(reqs[i].key("estimate", ds), resp)
		}
		items[i] = BatchItem{Result: &resp, Status: http.StatusOK, Cache: string(CacheShared)}
	}
}

// batchRun executes one pending batch item under the batch's worker slot
// (through the remote runner in cluster mode, with the usual local
// fallback) and publishes the result to the cache.
func (s *Server) batchRun(ctx context.Context, req EstimateRequest, ds *Dataset) BatchItem {
	ictx, cancel := context.WithTimeout(ctx, s.timeoutFor(req))
	defer cancel()
	resp, err := s.runOrRemote(ictx, req, ds)
	if err != nil {
		return BatchItem{Error: errDetail(err), Status: statusOf(err)}
	}
	outcome := CacheBypass
	if s.cache != nil {
		s.cache.Put(req.key("estimate", ds), resp)
		outcome = CacheMiss
	}
	return BatchItem{Result: &resp, Status: http.StatusOK, Cache: string(outcome)}
}

// runOrRemote executes one estimate under the caller's worker slot,
// preferring the remote runner in cluster mode (same fallback rules as
// dispatch, but without a second pool acquisition — the caller already
// holds a slot).
func (s *Server) runOrRemote(ctx context.Context, req EstimateRequest, ds *Dataset) (EstimateResponse, error) {
	if s.cfg.Remote != nil {
		resp, err := s.cfg.Remote(ctx, "estimate", req, ds)
		if err == nil || !errors.Is(err, ErrRemoteUnavailable) || s.cfg.NoLocalFallback {
			return resp, err
		}
	}
	return s.run(ctx, "estimate", req, ds)
}

// handleHealthz serves GET /healthz: 200 while serving, 503 while
// draining, so load balancers stop routing before shutdown completes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	tt := teleForEndpoint("healthz")
	start := tt.start()
	status := http.StatusOK
	defer func() { tt.end(start, status) }()
	h := HealthResponse{
		Status:   "ok",
		Graphs:   s.cat.Len(),
		InFlight: s.pool.InFlight(),
		Waiting:  s.pool.Waiting(),
	}
	if s.draining.Load() {
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}
