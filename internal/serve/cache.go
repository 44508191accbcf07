package serve

import (
	"container/list"
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"time"
)

// The result cache exploits the repo's central determinism contract: every
// estimate is a pure function of (graph, algorithm, options, seed), so two
// requests with the same canonical tuple must produce bit-identical
// responses — recomputing the second one is O(passes · m) of wasted stream
// work. The cache is sharded 16 ways (FNV-1a over the key) so concurrent
// lookups on different keys never contend on one lock, holds a per-shard
// LRU bounded by the configured total entry count, and coalesces concurrent
// misses singleflight-style: the first request for a key becomes the
// leader and runs the estimation once; every concurrent duplicate becomes
// a waiter on the leader's flight. Waiters honor their own context
// (deadline, client disconnect) while waiting, and an abandoning waiter
// never cancels the leader's run — the run is only cancelled when every
// interested request has walked away.

// cacheShards is the shard count; keys are distributed by FNV-1a hash.
const cacheShards = 16

// CacheOutcome reports how a request's result was obtained; the HTTP layer
// echoes it in the X-Cache response header and batch item bodies.
type CacheOutcome string

const (
	// CacheHit: the response came straight from the cache.
	CacheHit CacheOutcome = "hit"
	// CacheMiss: this request ran the estimation (and populated the cache).
	CacheMiss CacheOutcome = "miss"
	// CacheCoalesced: an identical request was already running; this one
	// waited for its result instead of running again.
	CacheCoalesced CacheOutcome = "coalesced"
	// CacheBypass: the cache is disabled or not applicable; the request ran
	// directly.
	CacheBypass CacheOutcome = "bypass"
	// CacheShared: a batch item answered from a shared family pass — the
	// batch held several parallel median runs differing only in copy count,
	// so one run of the largest count produced per-copy snapshots and each
	// item's result was merged from its prefix (see handleBatch).
	CacheShared CacheOutcome = "shared"
)

// cacheKey is the canonical identity of a deterministic run: everything
// that feeds the estimate and nothing that doesn't (timeouts are not part
// of the key). The graph fingerprint rides along with the name so a
// catalog reload that changes the edges behind a name can never serve a
// stale count — old entries key to the old fingerprint and age out of the
// LRU. The struct is comparable, so it indexes the shard maps directly.
type cacheKey struct {
	kind        string // "estimate" or "distinguish"
	graph       string
	fingerprint uint64
	version     uint64 // graph version the run pinned (see EstimateRequest.key)
	model       string // raw request model, so the two models never share a hit
	algorithm   string
	sampleSize  int
	sampleProb  float64
	pairCap     int
	cycleLen    int
	copies      int
	confidence  float64
	parallel    bool
	seed        uint64 // effective seed (request seed or server default)
	order       string
}

// shardOf returns the key's shard index.
func (k cacheKey) shardOf() int {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%s\x00%x\x00%x\x00%s\x00%s\x00%d\x00%g\x00%d\x00%d\x00%d\x00%g\x00%t\x00%x\x00%s",
		k.kind, k.graph, k.fingerprint, k.version, k.model, k.algorithm, k.sampleSize,
		k.sampleProb, k.pairCap, k.cycleLen, k.copies, k.confidence, k.parallel,
		k.seed, k.order)
	return int(h.Sum64() % cacheShards)
}

// cacheEntry is one stored result.
type cacheEntry struct {
	key    cacheKey
	resp   EstimateResponse
	stored time.Time
}

// flight is one in-progress estimation shared by a leader and any number
// of coalesced waiters. refs counts the requests still interested in the
// result (guarded by the shard mutex); when it reaches zero before the run
// finishes, cancel aborts the run.
type flight struct {
	done   chan struct{} // closed when resp/err are set
	resp   EstimateResponse
	err    error
	refs   int
	cancel context.CancelFunc
}

// cacheShard is one lock domain: an LRU of completed results plus the
// in-progress flights whose keys hash here.
type cacheShard struct {
	mu      sync.Mutex
	entries map[cacheKey]*list.Element
	lru     list.List // front = most recently used; values are *cacheEntry
	flights map[cacheKey]*flight
}

// Cache is the sharded deterministic result cache with request coalescing.
type Cache struct {
	shards   [cacheShards]cacheShard
	shardCap int           // max entries per shard
	ttl      time.Duration // 0 = entries live until evicted
}

// NewCache returns a cache bounded to roughly entries results in total
// (rounded up to a multiple of the shard count) whose entries expire after
// ttl (0 = no age limit). entries <= 0 selects the default of 4096.
func NewCache(entries int, ttl time.Duration) *Cache {
	if entries <= 0 {
		entries = 4096
	}
	c := &Cache{shardCap: (entries + cacheShards - 1) / cacheShards, ttl: ttl}
	for i := range c.shards {
		c.shards[i].entries = make(map[cacheKey]*list.Element)
		c.shards[i].flights = make(map[cacheKey]*flight)
	}
	return c
}

// Len returns the total number of cached results.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// getLocked looks key up in sh, refreshing LRU position and enforcing TTL.
// Caller holds sh.mu.
func (c *Cache) getLocked(sh *cacheShard, shard int, key cacheKey, tt cacheTele) (EstimateResponse, bool) {
	el, ok := sh.entries[key]
	if !ok {
		return EstimateResponse{}, false
	}
	ent := el.Value.(*cacheEntry)
	if c.ttl > 0 && time.Since(ent.stored) > c.ttl {
		sh.lru.Remove(el)
		delete(sh.entries, key)
		tt.evictions.Add(1)
		tt.occupancy(shard, len(sh.entries))
		return EstimateResponse{}, false
	}
	sh.lru.MoveToFront(el)
	return ent.resp, true
}

// putLocked stores resp under key, evicting the least recently used entry
// when the shard is full. Caller holds sh.mu.
func (c *Cache) putLocked(sh *cacheShard, shard int, key cacheKey, resp EstimateResponse, tt cacheTele) {
	if el, ok := sh.entries[key]; ok {
		el.Value.(*cacheEntry).resp = resp
		el.Value.(*cacheEntry).stored = time.Now()
		sh.lru.MoveToFront(el)
		return
	}
	for sh.lru.Len() >= c.shardCap {
		back := sh.lru.Back()
		sh.lru.Remove(back)
		delete(sh.entries, back.Value.(*cacheEntry).key)
		tt.evictions.Add(1)
	}
	sh.entries[key] = sh.lru.PushFront(&cacheEntry{key: key, resp: resp, stored: time.Now()})
	tt.occupancy(shard, len(sh.entries))
}

// Get returns the cached response for key, counting a hit or miss.
func (c *Cache) Get(key cacheKey) (EstimateResponse, bool) {
	tt := teleForCache()
	shard := key.shardOf()
	sh := &c.shards[shard]
	sh.mu.Lock()
	resp, ok := c.getLocked(sh, shard, key, tt)
	sh.mu.Unlock()
	if ok {
		tt.hits.Add(1)
	} else {
		tt.misses.Add(1)
	}
	return resp, ok
}

// Put stores resp under key (used by batch items, which compute under the
// batch's own worker slot instead of leading a flight).
func (c *Cache) Put(key cacheKey, resp EstimateResponse) {
	tt := teleForCache()
	shard := key.shardOf()
	sh := &c.shards[shard]
	sh.mu.Lock()
	c.putLocked(sh, shard, key, resp, tt)
	sh.mu.Unlock()
}

// Do returns the response for key: from the cache when present, by joining
// an in-progress identical run when one exists, and otherwise by running
// run exactly once as the leader. The leader's run executes detached from
// any single request, bounded by maxRun and cancelled only when every
// interested request has abandoned — a waiter whose ctx fires gets its own
// ctx error while the run continues for the others. Successful results are
// stored before the flight is retired, so there is no window in which a
// concurrent request neither finds the entry nor joins the flight.
func (c *Cache) Do(ctx context.Context, key cacheKey, maxRun time.Duration, run func(context.Context) (EstimateResponse, error)) (EstimateResponse, CacheOutcome, error) {
	tt := teleForCache()
	shard := key.shardOf()
	sh := &c.shards[shard]

	sh.mu.Lock()
	if resp, ok := c.getLocked(sh, shard, key, tt); ok {
		sh.mu.Unlock()
		tt.hits.Add(1)
		return resp, CacheHit, nil
	}
	if f, ok := sh.flights[key]; ok {
		f.refs++
		sh.mu.Unlock()
		tt.coalesced.Add(1)
		resp, err := c.wait(ctx, sh, f)
		return resp, CacheCoalesced, err
	}
	runCtx, cancel := context.WithTimeout(context.Background(), maxRun)
	f := &flight{done: make(chan struct{}), refs: 1, cancel: cancel}
	sh.flights[key] = f
	sh.mu.Unlock()
	tt.misses.Add(1)

	go func() {
		resp, err := run(runCtx)
		cancel()
		// Store the result and retire the flight under one lock
		// acquisition: any request that misses the entry still finds the
		// flight, and vice versa.
		sh.mu.Lock()
		f.resp, f.err = resp, err
		close(f.done)
		delete(sh.flights, key)
		if err == nil {
			c.putLocked(sh, shard, key, resp, tt)
		}
		sh.mu.Unlock()
	}()

	resp, err := c.wait(ctx, sh, f)
	return resp, CacheMiss, err
}

// wait blocks until f completes or ctx fires. An abandoning caller
// decrements the flight's refcount and cancels the run only when it was
// the last request interested in it.
func (c *Cache) wait(ctx context.Context, sh *cacheShard, f *flight) (EstimateResponse, error) {
	select {
	case <-f.done:
		return f.resp, f.err
	case <-ctx.Done():
		sh.mu.Lock()
		f.refs--
		last := f.refs == 0
		sh.mu.Unlock()
		if last {
			f.cancel()
		}
		return EstimateResponse{}, ctx.Err()
	}
}
