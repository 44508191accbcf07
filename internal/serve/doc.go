// Package serve is the online estimation service: the paper's sublinear
// estimators (Theorems 3.7 and 4.6) behind an HTTP/JSON API, which is
// exactly the setting where their space bounds matter — a loaded graph is
// large, a request's working set is not.
//
// The subsystem has three parts:
//
//   - Catalog: named datasets loaded once. Each dataset caches its graph
//     and canonical sorted stream, shared read-only by every request;
//     random-order streams are materialized per request.
//   - Pool: a bounded worker pool with admission control. At most Workers
//     requests estimate concurrently, at most Queue more wait; beyond that
//     Acquire fails fast with ErrSaturated, which the HTTP layer maps to
//     429 + Retry-After. Waiters leave the queue when their request's
//     context fires.
//   - Server: the HTTP surface (POST /v1/estimate, POST /v1/distinguish,
//     GET /v1/graphs, GET /healthz). Every estimation runs under a context
//     carrying the request deadline (bounded by Config.MaxTimeout) and the
//     client connection, so a timeout or disconnect cancels the pass loop
//     at the next chunk boundary via adjstream.EstimateContext and frees
//     the worker slot.
//
// Draining: SetDraining(true) makes /healthz fail (503) and rejects new
// estimation work while in-flight requests run to completion; cmd/adjserved
// flips it on SIGTERM before http.Server.Shutdown so load balancers stop
// routing first.
//
// Telemetry: when the global registry is enabled (cmd/adjserved -telemetry)
// the service reports per-endpoint request/error counters and latency
// histograms plus pool occupancy under the serve.* metric namespace.
package serve
