package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"metricindex/internal/core"
)

// maxConns is the client's connection limit: the load comes from this
// one process over at most two connections.
const maxConns = 2

// client sends the workload's operations to a server over loopback.
type client struct {
	in   *inputs
	base string
	hc   *http.Client
	rec  *recorder // non-nil: send request ids and record request spans

	nextID atomic.Int64
	mu     sync.Mutex
	keys   requestKeys // traced: the objects each request carried
}

func newClient(in *inputs, base string, rec *recorder) *client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: maxConns,
		MaxConnsPerHost:     maxConns,
		DisableCompression:  true,
	}
	return &client{
		in: in, base: base, rec: rec,
		hc:   &http.Client{Transport: tr, Timeout: 60 * time.Second},
		keys: requestKeys{},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// outcome is what one operation returned.
type outcome struct {
	kind     opKind
	ok       bool // 200 and a readable body
	status   int
	err      error
	queries  int    // queries answered (a batch answers BatchSize)
	strategy string // filtered reads: the plan the server reports
	body     []byte // kept only when the caller asks for it
}

// encode renders an operation's request path and body.
func (c *client) encode(o op, buf []byte) (string, []byte) {
	in := c.in
	switch o.Kind {
	case opKNN, opRange:
		buf = append(buf, `{"query":`...)
		buf = appendObject(buf, in.queryAt(o.Query))
		path := "/v1/knn"
		if o.Kind == opKNN {
			buf = append(buf, `,"k":`...)
			buf = strconv.AppendInt(buf, int64(in.w.K), 10)
		} else {
			path = "/v1/range"
			buf = append(buf, `,"radius":`...)
			buf = strconv.AppendFloat(buf, in.radius, 'g', -1, 64)
		}
		if o.Filter >= 0 {
			buf = append(buf, `,"filter":`...)
			buf = strconv.AppendQuote(buf, filterBattery[o.Filter])
		}
		return path, append(buf, '}')
	case opBatch:
		buf = append(buf, `{"type":"knn","k":`...)
		buf = strconv.AppendInt(buf, int64(in.w.K), 10)
		buf = append(buf, `,"queries":[`...)
		for j, q := range o.Batch {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = appendObject(buf, in.queryAt(q))
		}
		return "/v1/batch", append(buf, "]}"...)
	default:
		buf = append(buf, `{"object":`...)
		buf = appendObject(buf, in.inserts[o.Insert])
		buf = append(buf, `,"attrs":`...)
		buf = appendAttrs(buf, in.attrs[o.Insert])
		return "/v1/insert", append(buf, '}')
	}
}

// keysOf lists the content keys of the objects an operation carries.
func (c *client) keysOf(o op) []uint64 {
	switch o.Kind {
	case opBatch:
		ks := make([]uint64, len(o.Batch))
		for j, q := range o.Batch {
			ks[j] = objectKey(c.in.queryAt(q))
		}
		return ks
	case opInsert:
		return []uint64{objectKey(c.in.inserts[o.Insert])}
	}
	return []uint64{objectKey(c.in.queryAt(o.Query))}
}

func appendObject(buf []byte, o core.Object) []byte {
	switch v := o.(type) {
	case core.Vector:
		buf = append(buf, '[')
		for i, x := range v {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendFloat(buf, x, 'g', -1, 64)
		}
		return append(buf, ']')
	case core.Word:
		return strconv.AppendQuote(buf, string(v))
	}
	panic(fmt.Sprintf("perfbench: no wire form for %T", o))
}

func appendAttrs(buf []byte, a core.Attrs) []byte {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf = append(buf, '{')
	for i, k := range keys {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendQuote(buf, k)
		buf = append(buf, ':')
		v := a[k]
		switch v.Kind() {
		case core.AttrString:
			buf = strconv.AppendQuote(buf, v.Str())
		case core.AttrInt:
			buf = strconv.AppendInt(buf, v.Int(), 10)
		case core.AttrFloat:
			buf = strconv.AppendFloat(buf, v.Float(), 'g', -1, 64)
		case core.AttrTags:
			buf = append(buf, '[')
			for j, t := range v.Tags() {
				if j > 0 {
					buf = append(buf, ',')
				}
				buf = strconv.AppendQuote(buf, t)
			}
			buf = append(buf, ']')
		}
	}
	return append(buf, '}')
}

var strategyField = []byte(`"strategy":"`)

// do sends one operation and reads the whole response. With keep the
// body is returned for decoding.
func (c *client) do(o op, scratch *[]byte, keep bool) outcome {
	path, body := c.encode(o, (*scratch)[:0])
	*scratch = body
	res := outcome{kind: o.Kind}
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		res.err = err
		return res
	}
	req.Header.Set("Content-Type", "application/json")
	var id int64
	var start int64
	if c.rec != nil && c.rec.on.Load() {
		id = c.nextID.Add(1)
		req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
		ks := c.keysOf(o)
		c.mu.Lock()
		c.keys[id] = ks
		c.mu.Unlock()
		start = c.rec.now()
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		res.err = err
		return res
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if id != 0 {
		c.rec.add(span{kind: spanRequest, start: start, end: c.rec.now(), req: id, reqOp: o.Kind})
	}
	res.status = resp.StatusCode
	res.err = err
	res.ok = err == nil && resp.StatusCode == http.StatusOK
	if !res.ok {
		return res
	}
	switch o.Kind {
	case opKNN, opRange:
		res.queries = 1
		if o.Filter >= 0 {
			if i := bytes.Index(raw, strategyField); i >= 0 {
				rest := raw[i+len(strategyField):]
				if j := bytes.IndexByte(rest, '"'); j >= 0 {
					res.strategy = string(rest[:j])
				}
			}
		}
	case opBatch:
		res.queries = len(o.Batch)
	}
	if keep {
		res.body = raw
	}
	return res
}

// tally aggregates the outcomes of a load phase.
type tally struct {
	attempted, failed int64
	queries           int64
	strategies        map[string]int64
	lat               map[opKind][]time.Duration // open loop: from due time
}

func newTally() *tally {
	return &tally{strategies: map[string]int64{}, lat: map[opKind][]time.Duration{}}
}

func (t *tally) add(o outcome) {
	t.attempted++
	if !o.ok {
		t.failed++
		return
	}
	t.queries += int64(o.queries)
	if o.strategy != "" {
		t.strategies[o.strategy]++
	}
}

func (t *tally) merge(u *tally) {
	t.attempted += u.attempted
	t.failed += u.failed
	t.queries += u.queries
	for k, v := range u.strategies {
		t.strategies[k] += v
	}
	for k, v := range u.lat {
		t.lat[k] = append(t.lat[k], v...)
	}
}

// failedLatency stands for a failed or refused request in latency
// percentiles: it misses every limit.
const failedLatency = time.Duration(math.MaxInt64)

// closedLoop runs maxConns clients back to back with no think time
// for d, taking operations from position *next on. It returns the
// outcomes and the elapsed time.
func (c *client) closedLoop(d time.Duration, next *atomic.Int64, streamBase int) (*tally, time.Duration) {
	deadline := time.Now().Add(d)
	parts := make([]*tally, maxConns)
	var wg sync.WaitGroup
	start := time.Now()
	for w := range parts {
		parts[w] = newTally()
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			var scratch []byte
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				t.add(c.do(c.in.opAt(i, streamBase), &scratch, false))
			}
		}(parts[w])
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := newTally()
	for _, p := range parts {
		total.merge(p)
	}
	return total, elapsed
}

// openLoopResult is the timing of one open-loop phase.
type openLoopResult struct {
	lat  []time.Duration // per request, from its due time; failedLatency if it failed
	late []time.Duration // how late the generator released each request
}

// runOpenLoop offers n requests at a fixed rate, request i due at
// start + i/rate. A scheduler releases each request at its due time
// into a queue that never blocks it; conns workers send them. Latency
// is timed from the due time, so a stall delays the requests due
// during it; the scheduler's own lateness is reported apart.
func runOpenLoop(rate float64, n, conns int, send func(i int) bool) openLoopResult {
	res := openLoopResult{lat: make([]time.Duration, n), late: make([]time.Duration, n)}
	start := time.Now()
	due := func(i int) time.Time { return start.Add(time.Duration(float64(i) / rate * float64(time.Second))) }
	// Sized to every request of the phase, so the scheduler never
	// waits for a busy connection.
	queue := make(chan int, n)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				ok := send(i)
				res.lat[i] = time.Since(due(i))
				if !ok {
					res.lat[i] = failedLatency
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		d := due(i)
		sleepUntil(d)
		res.late[i] = time.Since(d)
		queue <- i
		// Let a worker pick the request up on this P right away rather
		// than after the scheduler's next sleep.
		runtime.Gosched()
	}
	close(queue)
	wg.Wait()
	return res
}

// sleepUntil blocks the calling thread in nanosleep until t. The
// runtime's timers round sub-millisecond sleeps up to a millisecond
// when the process is otherwise idle, which would dominate latencies of
// a few hundred microseconds.
func sleepUntil(t time.Time) {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

// openLoop offers the workload's fixed rate for d over maxConns
// connections, taking operations from position *next on.
func (c *client) openLoop(d time.Duration, next *atomic.Int64, streamBase int) (*tally, openLoopResult) {
	rate := c.in.w.OpenRate
	n := int(rate * d.Seconds())
	first := int(next.Add(int64(n)) - int64(n))
	outs := make([]outcome, n)
	var scratchPool sync.Pool
	res := runOpenLoop(rate, n, maxConns, func(i int) bool {
		s, _ := scratchPool.Get().(*[]byte)
		if s == nil {
			s = new([]byte)
		}
		outs[i] = c.do(c.in.opAt(first+i, streamBase), s, false)
		scratchPool.Put(s)
		return outs[i].ok
	})
	t := newTally()
	for i, o := range outs {
		t.add(o)
		t.lat[o.kind] = append(t.lat[o.kind], res.lat[i])
	}
	return t, res
}

// percentile is the nearest-rank p-quantile (0 < p <= 1) of ds; ds is
// sorted in place.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(math.Ceil(p*float64(len(ds)))) - 1
	if i < 0 {
		i = 0
	}
	return ds[i]
}

// micros renders a latency in µs; a failed request's stand-in reads as
// 1e12 µs (JSON has no infinity).
func micros(d time.Duration) float64 {
	if d == failedLatency {
		return 1e12
	}
	return float64(d) / float64(time.Microsecond)
}
