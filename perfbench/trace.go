package main

import (
	"bufio"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"metricindex/internal/core"
	"metricindex/internal/epoch"
	"metricindex/internal/obs"
)

// The traced run records spans from the benchmark's own code around the
// public entry points of each layer: the loopback client, a middleware
// around Server.Handler(), a core.Index decorator handed to
// epoch.NewLive, one decorator per shard sub-index (through a builder
// wrapped around the named one), and an epoch.Journal decorator. Nothing inside the
// program changes. Spans are kept in memory and linked once at the end:
// a handler span to its request by the request-id header, and index,
// shard and journal spans to their parents by the content key of the
// query or object they carry plus interval containment.

type spanKind uint8

const (
	spanRequest spanKind = iota // client round trip
	spanHandler                 // Server.Handler() middleware
	spanIndex                   // index under epoch.Live
	spanShard                   // one shard's sub-index
	spanJournal                 // epoch.Journal append
)

var spanKindNames = [...]string{"request", "handler", "index", "shard", "journal"}

// spanOp names what an index, shard or journal span did.
type spanOp uint8

const (
	spanKNN spanOp = iota
	spanRange
	spanKNNAccept
	spanRangeAccept
	spanInsert
	spanAppend
)

var spanOpNames = [...]string{"knn", "range", "knn_accept", "range_accept", "insert", "append"}

// span is one recorded interval. Times are nanoseconds since the
// recorder's base. req is the request id (set on request and handler
// spans when recorded, on the others when linked); n carries answers
// (index, shard), the shard number, or response bytes (handler).
type span struct {
	start, end int64
	key        uint64
	req        int64
	parent     int32
	n          int32
	kind       spanKind
	op         spanOp
	reqOp      opKind // request and handler spans: the operation sent
}

func (s *span) dur() int64 { return s.end - s.start }

// recorder is a fixed-capacity, lock-free span buffer. Writers claim a
// slot with one atomic add; spans past the capacity are counted as
// dropped. It records only while on is set.
type recorder struct {
	base    time.Time
	on      atomic.Bool
	next    atomic.Int64
	dropped atomic.Int64
	spans   []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{base: time.Now(), spans: make([]span, capacity)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) add(s span) {
	i := r.next.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return
	}
	s.parent = -1
	r.spans[i] = s
}

// recorded returns the spans written so far. Call it only after every
// writer has finished (the server shut down, the clients returned).
func (r *recorder) recorded() []span {
	n := r.next.Load()
	if n > int64(len(r.spans)) {
		n = int64(len(r.spans))
	}
	return r.spans[:n]
}

// objectKey is the content key of a query or object: equal objects get
// equal keys, so a span deep in the stack can be matched to the request
// that carried the object.
func objectKey(o core.Object) uint64 {
	h := uint64(14695981039346656037)
	switch v := o.(type) {
	case core.Vector:
		for _, x := range v {
			h ^= math.Float64bits(x)
			h *= 1099511628211
		}
	case core.Word:
		for i := 0; i < len(v); i++ {
			h ^= uint64(v[i])
			h *= 1099511628211
		}
	}
	return h
}

// reqHeader carries the client's request id to the handler middleware.
const reqHeader = "X-Bench-Req"

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += n
	return n, err
}

// middleware records a handler span around every request.
func (r *recorder) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		id, _ := strconv.ParseInt(req.Header.Get(reqHeader), 10, 64)
		cw := &countingWriter{ResponseWriter: w}
		start := r.now()
		h.ServeHTTP(cw, req)
		r.add(span{kind: spanHandler, start: start, end: r.now(), req: id, n: int32(cw.n)})
	})
}

// tracedIndex decorates a core.Index. The plain type forwards only the
// Index methods; tracedAccept adds core.AcceptSearcher and
// tracedSharded adds the sharded front's optional interfaces, so every
// type assertion the layers above make answers exactly as it would on
// the undecorated index and planner choices do not change.
type tracedIndex struct {
	core.Index
	rec   *recorder
	ds    *core.Dataset // resolves Insert ids to content keys
	kind  spanKind
	shard int32
}

// Unwrap lets persist.Encode reach the undecorated index
// (persist.Unwrapper), as a snapshot after a swap would.
func (t *tracedIndex) Unwrap() core.Index { return t.Index }

func (t *tracedIndex) record(op spanOp, start int64, key uint64, answers int) {
	n := int32(answers)
	if t.kind == spanShard {
		n = t.shard
	}
	t.rec.add(span{kind: t.kind, op: op, start: start, end: t.rec.now(), key: key, n: n})
}

func (t *tracedIndex) KNNSearch(q core.Object, k int) ([]core.Neighbor, error) {
	if !t.rec.on.Load() {
		return t.Index.KNNSearch(q, k)
	}
	start := t.rec.now()
	nns, err := t.Index.KNNSearch(q, k)
	t.record(spanKNN, start, objectKey(q), len(nns))
	return nns, err
}

func (t *tracedIndex) RangeSearch(q core.Object, r float64) ([]int, error) {
	if !t.rec.on.Load() {
		return t.Index.RangeSearch(q, r)
	}
	start := t.rec.now()
	ids, err := t.Index.RangeSearch(q, r)
	t.record(spanRange, start, objectKey(q), len(ids))
	return ids, err
}

func (t *tracedIndex) Insert(id int) error {
	if !t.rec.on.Load() || t.ds == nil {
		return t.Index.Insert(id)
	}
	start := t.rec.now()
	err := t.Index.Insert(id)
	t.record(spanInsert, start, objectKey(t.ds.Object(id)), 0)
	return err
}

type tracedAccept struct {
	*tracedIndex
	as core.AcceptSearcher
}

func (t *tracedAccept) KNNSearchAccept(q core.Object, k int, accept core.Accept) ([]core.Neighbor, error) {
	if !t.rec.on.Load() {
		return t.as.KNNSearchAccept(q, k, accept)
	}
	start := t.rec.now()
	nns, err := t.as.KNNSearchAccept(q, k, accept)
	t.record(spanKNNAccept, start, objectKey(q), len(nns))
	return nns, err
}

func (t *tracedAccept) RangeSearchAccept(q core.Object, r float64, accept core.Accept) ([]int, error) {
	if !t.rec.on.Load() {
		return t.as.RangeSearchAccept(q, r, accept)
	}
	start := t.rec.now()
	ids, err := t.as.RangeSearchAccept(q, r, accept)
	t.record(spanRangeAccept, start, objectKey(q), len(ids))
	return ids, err
}

// shardedFront is the optional surface of shard.Sharded: probe
// filtering, and beyond it the probe histograms the server registers
// and the span-emitting searches of trace-flagged requests.
type shardedFront interface {
	core.AcceptSearcher
	RegisterObs(reg *obs.Registry)
	RangeSearchTraced(q core.Object, r float64, tr *obs.Trace) ([]int, error)
	KNNSearchTraced(q core.Object, k int, tr *obs.Trace) ([]core.Neighbor, error)
}

type tracedSharded struct {
	*tracedAccept
	front shardedFront
}

func (t *tracedSharded) RegisterObs(reg *obs.Registry) { t.front.RegisterObs(reg) }

func (t *tracedSharded) RangeSearchTraced(q core.Object, r float64, tr *obs.Trace) ([]int, error) {
	return t.front.RangeSearchTraced(q, r, tr)
}

func (t *tracedSharded) KNNSearchTraced(q core.Object, k int, tr *obs.Trace) ([]core.Neighbor, error) {
	return t.front.KNNSearchTraced(q, k, tr)
}

// wrapIndex decorates idx with the interfaces it implements.
func wrapIndex(idx core.Index, rec *recorder, ds *core.Dataset, kind spanKind, shard int) core.Index {
	t := &tracedIndex{Index: idx, rec: rec, ds: ds, kind: kind, shard: int32(shard)}
	if front, ok := idx.(shardedFront); ok {
		return &tracedSharded{tracedAccept: &tracedAccept{tracedIndex: t, as: front}, front: front}
	}
	if as, ok := idx.(core.AcceptSearcher); ok {
		return &tracedAccept{tracedIndex: t, as: as}
	}
	return t
}

// tracedJournal decorates the WAL attached with Live.SetJournal.
type tracedJournal struct {
	inner epoch.Journal
	rec   *recorder
}

func (j *tracedJournal) Append(op epoch.Op, ep uint64, id int, obj core.Object, attrs core.Attrs) error {
	if !j.rec.on.Load() {
		return j.inner.Append(op, ep, id, obj, attrs)
	}
	start := j.rec.now()
	err := j.inner.Append(op, ep, id, obj, attrs)
	j.rec.add(span{kind: spanJournal, op: spanAppend, start: start, end: j.rec.now(), key: objectKey(obj)})
	return err
}

// requestKeys maps a request id to the content keys of the objects it
// carried (one for single queries and inserts, BatchSize for batches).
type requestKeys map[int64][]uint64

// link sets parent and req on every span it can attribute: handler →
// request by id; index and journal → handler of a request carrying the
// same key whose interval contains it; shard → index span with the same
// key containing it.
func link(spans []span, keys requestKeys) {
	handlerOf := map[int64]int32{}
	for i := range spans {
		if spans[i].kind == spanHandler {
			handlerOf[spans[i].req] = int32(i)
		}
	}
	byKey := map[uint64][]int64{}
	for i := range spans {
		s := &spans[i]
		if s.kind != spanRequest {
			continue
		}
		if h, ok := handlerOf[s.req]; ok {
			spans[h].parent = int32(i)
			spans[h].reqOp = s.reqOp
		}
		for _, k := range keys[s.req] {
			byKey[k] = append(byKey[k], s.req)
		}
	}
	indexByKey := map[uint64][]int32{}
	for i := range spans {
		s := &spans[i]
		if s.kind != spanIndex && s.kind != spanJournal {
			continue
		}
		for _, id := range byKey[s.key] {
			h, ok := handlerOf[id]
			if ok && spans[h].start <= s.start && s.end <= spans[h].end {
				s.parent, s.req = h, id
				break
			}
		}
		if s.kind == spanIndex {
			indexByKey[s.key] = append(indexByKey[s.key], int32(i))
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.kind != spanShard {
			continue
		}
		for _, p := range indexByKey[s.key] {
			if spans[p].start <= s.start && s.end <= spans[p].end {
				s.parent, s.req = p, spans[p].req
				break
			}
		}
	}
}

// children lists each span's linked children.
func children(spans []span) [][]int32 {
	out := make([][]int32, len(spans))
	for i := range spans {
		if p := spans[i].parent; p >= 0 {
			out[p] = append(out[p], int32(i))
		}
	}
	return out
}

// selfTime is a span's duration minus the part of its interval that
// its children cover (children may overlap one another).
func selfTime(spans []span, parent int32, kids []int32) int64 {
	p := spans[parent]
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].start, spans[k].end
		if a < p.start {
			a = p.start
		}
		if b > p.end {
			b = p.end
		}
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered := int64(0)
	curA, curB := int64(0), int64(-1)
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				covered += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		covered += curB - curA
	}
	return p.dur() - covered
}

// stragglerRatio is the slowest child's duration over the mean child
// duration; 0 without children.
func stragglerRatio(spans []span, kids []int32) float64 {
	if len(kids) == 0 {
		return 0
	}
	var sum, slowest int64
	for _, k := range kids {
		d := spans[k].dur()
		sum += d
		slowest = max(slowest, d)
	}
	if sum == 0 {
		return 1
	}
	return float64(slowest) / (float64(sum) / float64(len(kids)))
}

// traceEvent is one Chrome trace-event ("X" complete event); the file
// opens in ui.perfetto.dev or chrome://tracing.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeTrace writes the linked spans as Chrome trace events, one track
// per request id (unattributed spans on track 0).
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if _, err := w.WriteString("[\n"); err != nil {
		f.Close()
		return err
	}
	for i := range spans {
		s := &spans[i]
		name := spanKindNames[s.kind]
		switch s.kind {
		case spanRequest, spanHandler:
			name += " " + s.reqOp.String()
		default:
			name += " " + spanOpNames[s.op]
		}
		ev := traceEvent{
			Name: name, Cat: spanKindNames[s.kind], Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Pid: 1, Tid: s.req,
			Args: map[string]any{"span": i, "parent": s.parent, "n": s.n},
		}
		if i > 0 {
			if _, err := w.WriteString(","); err != nil {
				f.Close()
				return err
			}
		}
		if err := enc.Encode(&ev); err != nil {
			f.Close()
			return err
		}
	}
	if _, err := w.WriteString("]\n"); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
