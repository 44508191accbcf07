package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"adjstream/internal/serve"
)

// client is the load generator's HTTP side. Its transport never opens more
// than conns connections, whatever the number of goroutines using it.
type client struct {
	base   string
	hc     *http.Client
	tr     *http.Transport
	tracer *tracer
}

func newClient(base string, conns int, tr *tracer) *client {
	t := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{base: base, hc: &http.Client{Transport: t}, tr: t, tracer: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// result is one round trip as the client saw it.
type result struct {
	rid        uint64 // X-Request-Id, when tracing
	sent, done time.Time
	status     int
	cache      serve.CacheOutcome
	err        error
	ans        answer                   // reads
	ack        *serve.EdgeBatchResponse // writes
}

// answer is the part of an estimate response the checker compares.
type answer struct {
	Estimate    float64
	SpaceWords  int64
	Version     uint64
	Fingerprint uint64
}

func answerOf(r serve.EstimateResponse) (answer, error) {
	fp, err := strconv.ParseUint(r.GraphFingerprint, 16, 64)
	if err != nil {
		return answer{}, fmt.Errorf("bad graph_fingerprint %q", r.GraphFingerprint)
	}
	return answer{Estimate: r.Estimate, SpaceWords: r.SpaceWords, Version: r.GraphVersion, Fingerprint: fp}, nil
}

// outcomes are the X-Cache values an op records by index.
var outcomes = []serve.CacheOutcome{serve.CacheHit, serve.CacheMiss, serve.CacheCoalesced, serve.CacheBypass, serve.CacheShared}

// do sends one request and decodes a 200 body into out. With tracing on it
// tags the request with a fresh X-Request-Id and records the client span;
// bind, when set, runs with the id before the request leaves.
func (c *client) do(ctx context.Context, method, path string, body []byte, out any, bind func(rid uint64)) result {
	var res result
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		res.err = err
		return res
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var rid uint64
	if c.tracer != nil {
		rid = c.tracer.newRequest()
		res.rid = rid
		req.Header.Set(requestIDHeader, strconv.FormatUint(rid, 10))
		if bind != nil {
			bind(rid)
		}
	}
	res.sent = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		res.done = time.Now()
		res.err = err
		return res
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	res.done = time.Now()
	if c.tracer != nil {
		c.tracer.record(layerClient, rid, res.sent, res.done)
	}
	res.status = resp.StatusCode
	res.cache = serve.CacheOutcome(resp.Header.Get("X-Cache"))
	switch {
	case err != nil:
		res.err = err
	case resp.StatusCode != http.StatusOK:
		res.err = fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	case out != nil:
		if err := json.Unmarshal(b, out); err != nil {
			res.err = fmt.Errorf("%s %s: decoding: %w", method, path, err)
		}
	}
	return res
}

// read posts one estimate or distinguish request.
func (c *client) read(ctx context.Context, r readReq) result {
	body, err := json.Marshal(r.Spec)
	if err != nil {
		return result{err: err}
	}
	var bind func(uint64)
	if c.tracer != nil {
		bind = func(rid uint64) { c.tracer.bindRun(r.Spec, rid) }
	}
	var resp serve.EstimateResponse
	res := c.do(ctx, http.MethodPost, r.path(), body, &resp, bind)
	if res.err == nil {
		res.ans, res.err = answerOf(resp)
	}
	return res
}

// write posts one edge batch.
func (c *client) write(ctx context.Context, graphName string, b serve.EdgeBatchRequest) result {
	body, err := json.Marshal(b)
	if err != nil {
		return result{err: err}
	}
	var ack serve.EdgeBatchResponse
	res := c.do(ctx, http.MethodPost, "/v1/graphs/"+graphName+"/edges", body, &ack, nil)
	res.ack = &ack
	return res
}

// tick is a time offset from the start of the window in units of 100 ns:
// four bytes per timestamp, for windows up to three and a half minutes.
type tick int32

func toTick(d time.Duration) tick { return tick(d / 100) }

func (t tick) dur() time.Duration { return time.Duration(t) * 100 }

// op is one timed operation of the load phase. A hot-mix run records a
// few hundred thousand, and they share the process whose peak RSS is
// measured, so an op is 40 bytes and its rarely needed parts live behind
// one pointer. For the open loop, due is when the schedule wanted the
// request sent; for the closed loop, when the client became free.
type op struct {
	index                     int32 // position in the read schedule or the batch sequence
	status                    int16
	write                     bool
	cache                     uint8 // 1 + index into outcomes; 0 for none
	due, sent, done, dispatch tick  // dispatch: when the generator woke (open loop)
	rid                       uint64
	x                         *opDetail
}

// opDetail is the part of an op that most ops lack.
type opDetail struct {
	err   error
	wrong string // set by the checker
	ans   *answer
	ack   *serve.EdgeBatchResponse
}

func (o *op) detail() *opDetail {
	if o.x == nil {
		o.x = &opDetail{}
	}
	return o.x
}

// set records a round trip. A read's answer is kept for the checker unless
// verify, when set, checks it now.
func (o *op) set(res result, start time.Time, verify func(i int, a answer) string) {
	o.sent, o.done = toTick(res.sent.Sub(start)), toTick(res.done.Sub(start))
	o.rid, o.status = res.rid, int16(res.status)
	for i, oc := range outcomes {
		if res.cache == oc {
			o.cache = uint8(i + 1)
		}
	}
	switch {
	case res.err != nil:
		o.detail().err = res.err
	case o.write:
		o.detail().ack = res.ack
	case verify != nil:
		if msg := verify(int(o.index), res.ans); msg != "" {
			o.setWrong(msg)
		}
	default:
		ans := res.ans
		o.detail().ans = &ans
	}
}

func (o *op) err() error {
	if o.x == nil {
		return nil
	}
	return o.x.err
}

// setWrong records the checker's verdict against the op.
func (o *op) setWrong(msg string) { o.detail().wrong = msg }

// answer is the kept answer of a successful read, or nil.
func (o *op) answer() *answer {
	if o.x == nil {
		return nil
	}
	return o.x.ans
}

// ack is the response to a successful write.
func (o *op) ack() *serve.EdgeBatchResponse { return o.x.ack }

// outcome is the read's X-Cache value ("" when it had none).
func (o *op) outcome() serve.CacheOutcome {
	if o.cache == 0 {
		return ""
	}
	return outcomes[o.cache-1]
}

// latency is the client-observed latency: from due (open loop) or send
// (closed loop) to the last byte of the response.
func (o *op) latency(closed bool) time.Duration {
	if closed {
		return (o.done - o.sent).dur()
	}
	return (o.done - o.due).dur()
}

// failed reports a transport error, non-2xx status, or checker verdict.
func (o *op) failed() bool { return o.x != nil && (o.x.err != nil || o.x.wrong != "") }

// lag is how late the generator woke to send the request: past its due
// time in the open loop (zero when its connection was still busy), past the
// previous response in the closed loop.
func (o *op) lag(closed bool) time.Duration {
	if closed {
		return (o.sent - o.due).dur()
	}
	return (o.dispatch - o.due).dur()
}

// runClosed runs the closed loop: p.Clients clients (at most one per
// connection), each sending its next request only after the previous
// response, until the window ends. It returns the operations and the time
// from the first send to the last response.
func runClosed(c *client, p *plan, window time.Duration, verify func(int, answer) string) ([]*op, time.Duration) {
	start := time.Now()
	deadline := start.Add(window)
	var next atomic.Int64
	perClient := make([][]op, min(p.Clients, conns()))
	var wg sync.WaitGroup
	for k := range perClient {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			free := time.Now()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				res := c.read(context.Background(), p.closedRead(i))
				o := op{index: int32(i), due: toTick(free.Sub(start))}
				o.set(res, start, verify)
				perClient[k] = append(perClient[k], o)
				free = res.done
			}
		}(k)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var ops []*op
	for k := range perClient {
		for i := range perClient[k] {
			ops = append(ops, &perClient[k][i])
		}
	}
	return ops, elapsed
}

// arrivals is one open-loop arrival sequence served by its own workers.
type arrivals struct {
	ops     []*op // due-ordered
	workers int
	send    func(o *op) result
}

// runOpen runs the open loop. Worker w of a stream owns the stream's
// arrivals w, w+workers, ...: it sleeps until each is due and sends it on
// its own connection, whether or not the service has kept up, so an
// arrival whose worker is still busy goes out late and its latency,
// counted from the due time, includes the wait. It returns the time from
// the start to the last response.
func runOpen(streams []arrivals) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for _, s := range streams {
		for w := 0; w < s.workers; w++ {
			wg.Add(1)
			go func(s arrivals, w int) {
				defer wg.Done()
				for i := w; i < len(s.ops); i += s.workers {
					o := s.ops[i]
					o.dispatch = o.due
					if d := time.Until(start.Add(o.due.dur())); d > 0 {
						sleep(d)
						o.dispatch = toTick(time.Since(start))
					}
					o.set(s.send(o), start, nil)
				}
			}(s, w)
		}
	}
	wg.Wait()
	return time.Since(start)
}

// sleep blocks the calling thread in the kernel for d. The runtime's
// timers wake an idle process with millisecond granularity, which would
// add up to 2 ms of generator lag to sub-millisecond requests; a kernel
// sleep wakes within tens of microseconds.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// runLoad drives the fleet through the plan's timed window and returns
// every operation and the window's length. verify, when set, checks each
// closed-loop answer as it arrives.
func runLoad(c *client, p *plan, window time.Duration, verify func(int, answer) string) ([]*op, time.Duration) {
	if p.closed() {
		return runClosed(c, p, window, verify)
	}
	reads := make([]*op, len(p.Reads))
	for i, r := range p.Reads {
		reads[i] = &op{index: int32(i), due: toTick(r.Due)}
	}
	writes := make([]*op, len(p.Writes))
	for i, b := range p.Writes {
		writes[i] = &op{write: true, index: int32(i), due: toTick(b.Due)}
	}
	// One connection reads, the other writes in order.
	elapsed := runOpen([]arrivals{
		{ops: reads, workers: 1, send: func(o *op) result {
			return c.read(context.Background(), p.Specs[p.Reads[o.index].Spec])
		}},
		{ops: writes, workers: 1, send: func(o *op) result {
			return c.write(context.Background(), p.Graphs[0].Name, p.Writes[o.index].Req)
		}},
	})
	return append(reads, writes...), elapsed
}
