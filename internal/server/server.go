// Package server is the long-lived query service in front of the metric
// indexes: it exposes an epoch.Live index over HTTP/JSON with endpoints
// for range search, kNN, batched workloads (routed through the
// internal/exec engine), inserts, deletes, statistics, and health — plus
// the two properties a production front needs that one-shot experiment
// binaries do not: admission control (bounded in-flight queries and a
// bounded wait queue, shedding load with 429 beyond both) and graceful
// index swap (POST /v1/swap rebuilds the structure in the background and
// cuts over atomically with zero dropped or wrong answers, courtesy of
// internal/epoch).
//
// Every answer the server returns is exactly the answer a direct call on
// the wrapped Index would return — the handlers add transport, accounting
// and synchronization, never approximation. Per-endpoint and per-client
// statistics report qps, p50/p95/p99 latency, compdists and page
// accesses over a sliding window of recent requests.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"

	"metricindex/internal/cache"
	"metricindex/internal/core"
	"metricindex/internal/epoch"
	"metricindex/internal/exec"
	"metricindex/internal/obs"
	"metricindex/internal/plan"
)

// Options configures a Server.
type Options struct {
	// MaxInFlight bounds the requests executing concurrently; <= 0 uses
	// 4 × GOMAXPROCS.
	MaxInFlight int
	// MaxQueue bounds the requests allowed to wait for an in-flight slot
	// before new arrivals are rejected with 429; <= 0 uses 4 × MaxInFlight.
	MaxQueue int
	// Workers sizes the batch engine pool behind /v1/batch; <= 0 uses
	// GOMAXPROCS.
	Workers int
	// Builder rebuilds the index for POST /v1/swap. nil disables the
	// endpoint (501).
	Builder epoch.Builder
	// ClientHeader names the header that identifies a client for
	// per-client stats; requests without it are keyed by remote host.
	// Default "X-Client".
	ClientHeader string
	// Cache, when non-nil, installs an epoch-keyed answer cache of the
	// given shape on the live index (a zero Options gets the cache
	// package defaults). Hot queries are then served memoized — zero
	// compdists, zero page accesses — across /v1/range, /v1/knn and
	// /v1/batch, with hit/miss/eviction counters in /v1/stats. Every
	// committed insert, delete or swap bumps the epoch the entries are
	// keyed by, so cached answers never outlive a write. nil leaves the
	// live index's caching as the caller configured it.
	Cache *cache.Options
	// AfterSwap, when non-nil, runs synchronously after each successful
	// /v1/swap cutover with the committed epoch — the durability hook:
	// mserve uses it to snapshot the fresh structure and truncate the
	// write-ahead log. An error is reported to the caller (the swap
	// itself stays committed).
	AfterSwap func(epoch uint64) error
	// PersistStats, when non-nil, supplies the persistence block of
	// /v1/stats. nil omits the block.
	PersistStats func() PersistenceStats
	// Obs is the metrics registry every layer registers into and
	// GET /metrics scrapes. nil creates a private registry (metrics are
	// still collected and served; the caller just holds no handle).
	// mserve passes its own so the persistence layer shares it.
	Obs *obs.Registry
	// DisableMetrics leaves GET /metrics unmounted. Instrumentation
	// still runs — the registry is also the admission controller's
	// state — only the scrape endpoint disappears.
	DisableMetrics bool
	// PProf mounts net/http/pprof under GET /debug/pprof/.
	PProf bool
	// SlowQueryThreshold, when positive, logs every admitted request
	// whose handler ran at least this long, with its endpoint, duration,
	// compdists, page accesses and client.
	SlowQueryThreshold time.Duration
	// SlowQueryLogf receives the slow-query lines; nil uses log.Printf.
	SlowQueryLogf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 4 * o.MaxInFlight
	}
	if o.ClientHeader == "" {
		o.ClientHeader = "X-Client"
	}
	if o.Obs == nil {
		o.Obs = obs.NewRegistry()
	}
	if o.SlowQueryLogf == nil {
		o.SlowQueryLogf = log.Printf
	}
	return o
}

// Server serves an epoch.Live index over HTTP. Create with New, mount
// via Handler, or run with ListenAndServe/Serve.
type Server struct {
	live      *epoch.Live
	space     *core.Space
	proto     core.Object // prototype object fixing the wire type
	eng       *exec.Engine
	adm       *admission
	builder   epoch.Builder
	afterSwap func(epoch uint64) error
	persStats func() PersistenceStats
	clientHdr string
	start     time.Time
	endpoints *statSet
	clients   *statSet
	mux       *http.ServeMux
	hsrv      *http.Server

	reg        *obs.Registry
	slowThresh time.Duration
	slowLogf   func(format string, args ...any)
}

// New builds a server over a live index. The dataset's Space and object
// type are captured at construction (both survive swaps).
func New(live *epoch.Live, opts Options) (*Server, error) {
	opts = opts.withDefaults()
	var space *core.Space
	var proto core.Object
	live.View(func(ds *core.Dataset, _ core.Index) {
		space = ds.Space()
		ids := ds.LiveIDs()
		if len(ids) > 0 {
			proto = ds.Object(ids[0])
		}
	})
	if proto == nil {
		return nil, fmt.Errorf("server: empty dataset, cannot infer the object type")
	}
	if opts.Cache != nil {
		live.SetCache(cache.New(*opts.Cache))
	}
	reg := opts.Obs
	s := &Server{
		live:  live,
		space: space,
		proto: proto,
		eng: exec.New(space, exec.Options{Workers: opts.Workers, Metrics: &exec.Metrics{
			Batches: reg.Counter("mx_exec_batches_total",
				"Batches dispatched through the exec engine."),
			BatchQueries: reg.Histogram("mx_exec_batch_queries",
				"Queries per dispatched batch.", obs.DefSizeBuckets),
			PredispatchHits: reg.Counter("mx_exec_predispatch_hits_total",
				"Batch queries answered from the answer cache before dispatch."),
			QueueWait: reg.Histogram("mx_exec_queue_wait_seconds",
				"Wait from batch arrival to worker pickup per dispatched query.",
				obs.DefLatencyBuckets),
		}}),
		adm:        newAdmission(opts.MaxInFlight, opts.MaxQueue, reg),
		builder:    opts.Builder,
		afterSwap:  opts.AfterSwap,
		persStats:  opts.PersistStats,
		clientHdr:  opts.ClientHeader,
		start:      time.Now(),
		endpoints:  newStatSet(),
		clients:    newStatSet(),
		reg:        reg,
		slowThresh: opts.SlowQueryThreshold,
		slowLogf:   opts.SlowQueryLogf,
	}
	if s.builder != nil {
		// Every index a swap builds gets instrumented before cutover, so
		// a rebuilt sharded front keeps observing its probe histograms.
		inner := s.builder
		s.builder = func(ds *core.Dataset) (core.Index, error) {
			idx, err := inner(ds)
			if err == nil {
				if ro, ok := idx.(obsRegistrar); ok {
					ro.RegisterObs(reg)
				}
			}
			return idx, err
		}
	}
	s.registerObs()
	s.mux = http.NewServeMux()
	s.hsrv = &http.Server{Handler: s.mux}
	s.mux.HandleFunc("POST /v1/range", s.handle("range", true, s.handleRange))
	s.mux.HandleFunc("POST /v1/knn", s.handle("knn", true, s.handleKNN))
	s.mux.HandleFunc("POST /v1/batch", s.handle("batch", true, s.handleBatch))
	s.mux.HandleFunc("POST /v1/insert", s.handle("insert", true, s.handleInsert))
	s.mux.HandleFunc("POST /v1/attrs", s.handle("attrs", true, s.handleAttrs))
	s.mux.HandleFunc("POST /v1/delete", s.handle("delete", true, s.handleDelete))
	s.mux.HandleFunc("POST /v1/swap", s.handle("swap", false, s.handleSwap))
	s.mux.HandleFunc("GET /v1/stats", s.handle("stats", false, s.handleStats))
	s.mux.HandleFunc("GET /healthz", s.handle("healthz", false, s.handleHealth))
	if !opts.DisableMetrics {
		// Mounted directly, not through handle(): the scrape is a
		// text-format read that must stay available under overload and
		// should not pollute the JSON endpoint stats.
		s.mux.Handle("GET /metrics", reg.Handler())
	}
	if opts.PProf {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// Obs returns the server's metrics registry (for snapshotting by the
// bench harness and for the persistence layer to register into).
func (s *Server) Obs() *obs.Registry { return s.reg }

// Handler returns the HTTP handler tree (for mounting and tests).
func (s *Server) Handler() http.Handler { return s.mux }

// ListenAndServe binds addr and serves until Shutdown or failure.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve serves on an existing listener (callers pick the port, e.g.
// 127.0.0.1:0 in tests and smoke runs).
func (s *Server) Serve(ln net.Listener) error {
	err := s.hsrv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains in-flight requests and stops the listener.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.hsrv.Shutdown(ctx)
}

// httpError carries a status code out of a handler.
type httpError struct {
	code int
	err  error
}

func (e *httpError) Error() string { return e.err.Error() }
func (e *httpError) Unwrap() error { return e.err }

func badRequest(format string, args ...any) error {
	return &httpError{code: http.StatusBadRequest, err: fmt.Errorf(format, args...)}
}

// reqInfo carries the per-request clock points handle captures for its
// handler: arrival (before admission) and admission (after the
// controller let the request through) — the span timeline of a traced
// query is anchored on them.
type reqInfo struct {
	arrived  time.Time
	admitted time.Time
}

// handle wraps an endpoint with admission control, cost accounting,
// metrics, the slow-query log, and error mapping. admit=false exempts
// control-plane endpoints (stats/health, and swap — a swap runs for
// seconds and must not occupy a query slot; epoch.Live bounds it to one
// at a time itself).
//
// The per-endpoint metric handles are created once here at registration
// and captured by the closure, so the per-request cost is atomic
// increments only — no lookup, no allocation.
func (s *Server) handle(name string, admit bool, fn func(r *http.Request, ri *reqInfo) (any, error)) http.HandlerFunc {
	lbl := obs.Label{Key: "endpoint", Value: name}
	reqs := s.reg.Counter("mx_server_requests_total",
		"Requests executed (admitted and run, including errored).", lbl)
	errsC := s.reg.Counter("mx_server_errors_total",
		"Executed requests that returned an error.", lbl)
	sheds := s.reg.Counter("mx_server_sheds_total",
		"Requests shed at admission, never executed.", lbl)
	lat := s.reg.Histogram("mx_server_request_seconds",
		"Handler latency of executed requests (excludes admission wait).",
		obs.DefLatencyBuckets, lbl)
	return func(w http.ResponseWriter, r *http.Request) {
		ri := reqInfo{arrived: time.Now()}
		if admit {
			if err := s.adm.acquire(r.Context()); err != nil {
				// Shed requests never executed: count the error without
				// feeding a zero-duration sample into the latency window,
				// which would zero the percentiles exactly when the
				// operator is diagnosing an overload.
				sheds.Inc()
				s.endpoints.get(name).reject()
				s.clients.get(s.clientKey(r)).reject()
				s.writeError(w, err)
				return
			}
			defer s.adm.release()
		}
		ri.admitted = time.Now()
		compBase := s.space.CompDists()
		paBase := s.live.PageAccesses()
		res, err := fn(r, &ri)
		dur := time.Since(ri.admitted)
		comp := s.space.CompDists() - compBase
		pa := s.live.PageAccesses() - paBase
		if pa < 0 {
			pa = 0 // a swap replaced the index (and its counter) mid-request
		}
		reqs.Inc()
		lat.Observe(dur.Seconds())
		if err != nil {
			errsC.Inc()
		}
		s.endpoints.get(name).record(dur, comp, pa, err != nil)
		s.clients.get(s.clientKey(r)).record(dur, comp, pa, err != nil)
		if s.slowThresh > 0 && dur >= s.slowThresh {
			s.slowLogf("slow query: endpoint=%s dur=%s compdists=%d page_accesses=%d client=%s",
				name, dur, comp, pa, s.clientKey(r))
		}
		if err != nil {
			s.writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	}
}

// clientKey identifies the requester for per-client stats.
func (s *Server) clientKey(r *http.Request) string {
	if c := r.Header.Get(s.clientHdr); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var he *httpError
	switch {
	case errors.As(err, &he):
		code = he.code
	case errors.Is(err, ErrOverloaded):
		code = http.StatusTooManyRequests
	case errors.Is(err, epoch.ErrSwapInProgress):
		code = http.StatusConflict
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		code = http.StatusRequestTimeout
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func decodeBody(r *http.Request, into any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return badRequest("bad request body: %v", err)
	}
	return nil
}

// Neighbor is one kNN answer element on the wire.
type Neighbor struct {
	ID   int     `json:"id"`
	Dist float64 `json:"dist"`
}

func toWire(nns []core.Neighbor) []Neighbor {
	out := make([]Neighbor, len(nns))
	for i, nb := range nns {
		out[i] = Neighbor{ID: nb.ID, Dist: nb.Dist}
	}
	return out
}

// TraceResult is the span timeline of a trace-flagged query: total
// handler time plus one span per stage (admission_wait, decode,
// cache_probe, read_wait, read_section, probe_shard<N>, merge, encode),
// each with the compdists and page accesses attributable to it. The
// glossary is docs/OBSERVABILITY.md.
type TraceResult struct {
	TotalMicros int64      `json:"total_us"`
	Spans       []obs.Span `json:"spans"`
}

// newTrace starts the span timeline of a trace-flagged request,
// anchored at arrival, with the admission wait and the decode (which
// began at decStart) already recorded. Untraced requests get nil.
func newTrace(traced bool, ri *reqInfo, decStart time.Time) *obs.Trace {
	if !traced {
		return nil
	}
	tr := obs.NewTraceAt(ri.arrived)
	tr.Add("admission_wait", ri.arrived, ri.admitted.Sub(ri.arrived), 0, 0)
	tr.Add("decode", decStart, time.Since(decStart), 0, 0)
	return tr
}

// finishTrace records the encode span — measured by marshalling the
// trace-less response, which is the same work writeJSON is about to
// repeat — and closes the timeline. Only traced requests pay the double
// marshal.
func finishTrace(tr *obs.Trace, ri *reqInfo, res any) *TraceResult {
	encStart := time.Now()
	_, _ = json.Marshal(res)
	tr.Add("encode", encStart, time.Since(encStart), 0, 0)
	return &TraceResult{
		TotalMicros: time.Since(ri.arrived).Microseconds(),
		Spans:       tr.Spans(),
	}
}

// parseFilter compiles the optional filter clause of a query request.
// An empty clause means unfiltered (nil predicate); a malformed one is
// a client error. The predicate is compiled exactly once per request —
// evaluation against candidate attribute bags is allocation-free.
func parseFilter(src string) (*plan.Predicate, error) {
	if src == "" {
		return nil, nil
	}
	p, err := plan.Parse(src)
	if err != nil {
		return nil, badRequest("filter: %v", err)
	}
	return p, nil
}

// strategyString renders a plan strategy for the wire. Strategy zero is
// the cache convention: the answer was served memoized, no plan ran.
func strategyString(st plan.Strategy) string {
	if st == 0 {
		return "cached"
	}
	return st.String()
}

// RangeRequest is the body of POST /v1/range. Filter optionally
// restricts the answer to objects whose attribute bag satisfies the
// predicate (see docs/HYBRID.md for the clause language); Trace opts
// into the per-query span timeline on the response.
type RangeRequest struct {
	Query  json.RawMessage `json:"query"`
	Radius float64         `json:"radius"`
	Filter string          `json:"filter,omitempty"`
	Trace  bool            `json:"trace,omitempty"`
}

// RangeResponse answers POST /v1/range. IDs is ascending, exactly the
// direct RangeSearch answer; Epoch is the dataset version the search
// observed — answer and epoch come from one read section, so the pair is
// safe to cache. Strategy is present iff the request carried a filter:
// the execution shape the planner chose ("pre", "probe", "post"), or
// "cached" when the answer came from the answer cache without running a
// plan. Trace is present iff the request set trace.
type RangeResponse struct {
	IDs      []int        `json:"ids"`
	Epoch    uint64       `json:"epoch"`
	Strategy string       `json:"strategy,omitempty"`
	Trace    *TraceResult `json:"trace,omitempty"`
}

func (s *Server) handleRange(r *http.Request, ri *reqInfo) (any, error) {
	decStart := time.Now()
	var req RangeRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	q, err := decodeObject(req.Query, s.proto)
	if err != nil {
		return nil, badRequest("query: %v", err)
	}
	if req.Radius < 0 {
		return nil, badRequest("radius must be >= 0")
	}
	pred, err := parseFilter(req.Filter)
	if err != nil {
		return nil, err
	}
	query := epoch.Query{Object: q, Kind: epoch.KindRange, R: req.Radius, Filter: pred,
		Trace: newTrace(req.Trace, ri, decStart)}
	ans, err := s.live.Search(query)
	if err != nil {
		return nil, err
	}
	ids := ans.IDs
	if ids == nil {
		ids = []int{}
	}
	resp := RangeResponse{IDs: ids, Epoch: ans.Epoch}
	if pred != nil {
		resp.Strategy = strategyString(ans.Strategy)
	}
	if query.Trace != nil {
		resp.Trace = finishTrace(query.Trace, ri, resp)
	}
	return resp, nil
}

// KNNRequest is the body of POST /v1/knn. Filter optionally restricts
// the answer to objects whose attribute bag satisfies the predicate
// (see docs/HYBRID.md); Trace opts into the per-query span timeline on
// the response.
type KNNRequest struct {
	Query  json.RawMessage `json:"query"`
	K      int             `json:"k"`
	Filter string          `json:"filter,omitempty"`
	Trace  bool            `json:"trace,omitempty"`
}

// KNNResponse answers POST /v1/knn, sorted by ascending distance
// (ties by id) exactly as the direct KNNSearch call returns; Epoch is
// the dataset version the search observed (see RangeResponse). Strategy
// is present iff the request carried a filter (see RangeResponse).
// Trace is present iff the request set trace.
type KNNResponse struct {
	Neighbors []Neighbor   `json:"neighbors"`
	Epoch     uint64       `json:"epoch"`
	Strategy  string       `json:"strategy,omitempty"`
	Trace     *TraceResult `json:"trace,omitempty"`
}

func (s *Server) handleKNN(r *http.Request, ri *reqInfo) (any, error) {
	decStart := time.Now()
	var req KNNRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	q, err := decodeObject(req.Query, s.proto)
	if err != nil {
		return nil, badRequest("query: %v", err)
	}
	if req.K <= 0 {
		return nil, badRequest("k must be >= 1")
	}
	pred, err := parseFilter(req.Filter)
	if err != nil {
		return nil, err
	}
	query := epoch.Query{Object: q, Kind: epoch.KindKNN, K: req.K, Filter: pred,
		Trace: newTrace(req.Trace, ri, decStart)}
	ans, err := s.live.Search(query)
	if err != nil {
		return nil, err
	}
	resp := KNNResponse{Neighbors: toWire(ans.Neighbors), Epoch: ans.Epoch}
	if pred != nil {
		resp.Strategy = strategyString(ans.Strategy)
	}
	if query.Trace != nil {
		resp.Trace = finishTrace(query.Trace, ri, resp)
	}
	return resp, nil
}

// BatchRequest is the body of POST /v1/batch: a whole workload answered
// through the concurrent batch engine in one round trip. Type is "range"
// (with Radius) or "knn" (with K). Filter optionally applies one
// attribute predicate to every query in the batch (compiled once).
type BatchRequest struct {
	Type    string            `json:"type"`
	Queries []json.RawMessage `json:"queries"`
	Radius  float64           `json:"radius,omitempty"`
	K       int               `json:"k,omitempty"`
	Filter  string            `json:"filter,omitempty"`
}

// BatchStats reports the engine's per-batch cost on the wire.
// CacheHits is the number of queries the answer cache served before the
// batch ever reached a worker (0 without a cache). The p50/p95/p99
// percentiles cover only the queries that actually computed — cache
// hits return in single-digit microseconds and would otherwise drag the
// percentiles toward zero exactly when the operator is reading them —
// and the hit percentiles report the memoized path separately (zero
// when every query missed).
type BatchStats struct {
	Queries      int     `json:"queries"`
	WallMicros   int64   `json:"wall_us"`
	QPS          float64 `json:"qps"`
	CompDists    int64   `json:"compdists"`
	PageAccesses int64   `json:"page_accesses"`
	P50Micros    int64   `json:"p50_us"`
	P95Micros    int64   `json:"p95_us"`
	P99Micros    int64   `json:"p99_us"`
	HitP50Micros int64   `json:"hit_p50_us"`
	HitP95Micros int64   `json:"hit_p95_us"`
	HitP99Micros int64   `json:"hit_p99_us"`
	CacheHits    int     `json:"cache_hits"`
}

func toWireStats(st exec.BatchStats) BatchStats {
	return BatchStats{
		Queries:      st.Queries,
		WallMicros:   st.Wall.Microseconds(),
		QPS:          st.Throughput(),
		CompDists:    st.CompDists,
		PageAccesses: st.PageAccesses,
		P50Micros:    st.P50.Microseconds(),
		P95Micros:    st.P95.Microseconds(),
		P99Micros:    st.P99.Microseconds(),
		HitP50Micros: st.HitP50.Microseconds(),
		HitP95Micros: st.HitP95.Microseconds(),
		HitP99Micros: st.HitP99.Microseconds(),
		CacheHits:    st.CacheHits,
	}
}

// wirePlans renders the per-query strategies of a filtered batch
// (nil for unfiltered batches, so the field is omitted).
func wirePlans(plans []plan.Strategy) []string {
	if plans == nil {
		return nil
	}
	out := make([]string, len(plans))
	for i, st := range plans {
		out[i] = strategyString(st)
	}
	return out
}

// BatchResponse answers POST /v1/batch; IDs (range) or Neighbors (knn)
// is positionally aligned with the request's queries. Updates may commit
// while a batch runs, so each per-query answer observed some epoch in
// [EpochLow, EpochHigh]; only when the two are equal is the whole batch
// one consistent dataset version (and safe to cache as such).
type BatchResponse struct {
	IDs       [][]int      `json:"ids,omitempty"`
	Neighbors [][]Neighbor `json:"neighbors,omitempty"`
	Plans     []string     `json:"plans,omitempty"`
	Stats     BatchStats   `json:"stats"`
	EpochLow  uint64       `json:"epoch_low"`
	EpochHigh uint64       `json:"epoch_high"`
}

func (s *Server) handleBatch(r *http.Request, _ *reqInfo) (any, error) {
	var req BatchRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	if len(req.Queries) == 0 {
		return nil, badRequest("empty queries")
	}
	qs := make([]core.Object, len(req.Queries))
	for i, raw := range req.Queries {
		q, err := decodeObject(raw, s.proto)
		if err != nil {
			return nil, badRequest("query %d: %v", i, err)
		}
		qs[i] = q
	}
	pred, err := parseFilter(req.Filter)
	if err != nil {
		return nil, err
	}
	query := epoch.Query{Filter: pred}
	switch req.Type {
	case "range":
		if req.Radius < 0 {
			return nil, badRequest("radius must be >= 0")
		}
		query.Kind, query.R = epoch.KindRange, req.Radius
	case "knn":
		if req.K <= 0 {
			return nil, badRequest("k must be >= 1")
		}
		query.Kind, query.K = epoch.KindKNN, req.K
	default:
		return nil, badRequest("type must be \"range\" or \"knn\", got %q", req.Type)
	}
	epochLow := s.live.Epoch()
	res, err := s.eng.Batch(r.Context(), s.live, qs, query)
	if err != nil {
		return nil, err
	}
	resp := BatchResponse{Plans: wirePlans(res.Plans), Stats: toWireStats(res.Stats), EpochLow: epochLow}
	if res.IDs != nil {
		for i := range res.IDs {
			if res.IDs[i] == nil {
				res.IDs[i] = []int{}
			}
		}
		resp.IDs = res.IDs
	} else {
		resp.Neighbors = make([][]Neighbor, len(res.Neighbors))
		for i, part := range res.Neighbors {
			resp.Neighbors[i] = toWire(part)
		}
	}
	resp.EpochHigh = s.live.Epoch()
	return resp, nil
}

// InsertRequest is the body of POST /v1/insert. Attrs optionally
// attaches an attribute bag to the object for filtered search: a JSON
// object mapping field names to strings, numbers, or string arrays
// (tag sets) — see decodeAttrs for the exact kind mapping.
type InsertRequest struct {
	Object json.RawMessage `json:"object"`
	Attrs  json.RawMessage `json:"attrs,omitempty"`
}

// InsertResponse reports the identifier the object now answers under
// and the epoch the write committed at.
type InsertResponse struct {
	ID    int    `json:"id"`
	Epoch uint64 `json:"epoch"`
}

func (s *Server) handleInsert(r *http.Request, _ *reqInfo) (any, error) {
	var req InsertRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	o, err := decodeObject(req.Object, s.proto)
	if err != nil {
		return nil, badRequest("object: %v", err)
	}
	attrs, err := decodeAttrs(req.Attrs)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	id, ep, err := s.live.AddAttrsAt(o, attrs)
	if err != nil {
		return nil, err
	}
	return InsertResponse{ID: id, Epoch: ep}, nil
}

// AttrsRequest is the body of POST /v1/attrs: replace the attribute bag
// of a live object (an absent or empty bag clears it).
type AttrsRequest struct {
	ID    int             `json:"id"`
	Attrs json.RawMessage `json:"attrs,omitempty"`
}

// AttrsResponse confirms the attribute write with its commit epoch.
type AttrsResponse struct {
	Epoch uint64 `json:"epoch"`
}

func (s *Server) handleAttrs(r *http.Request, _ *reqInfo) (any, error) {
	var req AttrsRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	attrs, err := decodeAttrs(req.Attrs)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	ep, err := s.live.SetAttrsAt(req.ID, attrs)
	if err != nil {
		return nil, badRequest("attrs %d: %v", req.ID, err)
	}
	return AttrsResponse{Epoch: ep}, nil
}

// DeleteRequest is the body of POST /v1/delete.
type DeleteRequest struct {
	ID int `json:"id"`
}

// DeleteResponse confirms the delete with its commit epoch.
type DeleteResponse struct {
	Epoch uint64 `json:"epoch"`
}

func (s *Server) handleDelete(r *http.Request, _ *reqInfo) (any, error) {
	var req DeleteRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	ep, err := s.live.RemoveAt(req.ID)
	if err != nil {
		return nil, badRequest("delete %d: %v", req.ID, err)
	}
	return DeleteResponse{Epoch: ep}, nil
}

// SwapResponse reports a completed graceful swap.
type SwapResponse struct {
	Epoch       uint64 `json:"epoch"`
	BuildMillis int64  `json:"build_ms"`
}

func (s *Server) handleSwap(r *http.Request, _ *reqInfo) (any, error) {
	if s.builder == nil {
		return nil, &httpError{code: http.StatusNotImplemented,
			err: errors.New("swap: no builder configured")}
	}
	start := time.Now()
	if err := s.live.Swap(s.builder); err != nil {
		return nil, err
	}
	ep := s.live.Epoch()
	if s.afterSwap != nil {
		if err := s.afterSwap(ep); err != nil {
			// The cutover is committed; only the durability hook failed.
			return nil, fmt.Errorf("swap committed at epoch %d, but persistence failed: %w", ep, err)
		}
	}
	return SwapResponse{Epoch: ep, BuildMillis: time.Since(start).Milliseconds()}, nil
}

// IndexStats describes the live index in /v1/stats.
type IndexStats struct {
	Name         string `json:"name"`
	Count        int    `json:"count"`
	Epoch        uint64 `json:"epoch"`
	MemBytes     int64  `json:"mem_bytes"`
	DiskBytes    int64  `json:"disk_bytes"`
	PageAccesses int64  `json:"page_accesses"`
}

// CacheStats describes the answer cache in /v1/stats. All counters are
// zero (and Enabled false) when no cache is attached to the live index.
type CacheStats struct {
	Enabled   bool    `json:"enabled"`
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Collapsed int64   `json:"collapsed"`
	Evictions int64   `json:"evictions"`
	Entries   int64   `json:"entries"`
	Bytes     int64   `json:"bytes"`
	MaxBytes  int64   `json:"max_bytes"`
	HitRate   float64 `json:"hit_rate"`
}

// PersistenceStats describes the durability state in /v1/stats: where the
// snapshot and write-ahead log live, the epoch the last snapshot captured,
// and the log's growth since. All fields are zero (Enabled false) when the
// server runs without a data directory.
type PersistenceStats struct {
	Enabled       bool   `json:"enabled"`
	Dir           string `json:"dir,omitempty"`
	Restored      bool   `json:"restored"`
	SnapshotEpoch uint64 `json:"snapshot_epoch"`
	SnapshotBytes int64  `json:"snapshot_bytes"`
	WALRecords    int64  `json:"wal_records"`
	WALBytes      int64  `json:"wal_bytes"`
	Fsync         string `json:"fsync,omitempty"`
}

// StatsResponse answers GET /v1/stats.
type StatsResponse struct {
	UptimeSeconds float64                 `json:"uptime_seconds"`
	Index         IndexStats              `json:"index"`
	Cache         CacheStats              `json:"cache"`
	Persistence   PersistenceStats        `json:"persistence"`
	Admission     AdmissionStats          `json:"admission"`
	Endpoints     map[string]TrackerStats `json:"endpoints"`
	Clients       map[string]TrackerStats `json:"clients"`
}

func (s *Server) cacheStats() CacheStats {
	st, ok := s.live.CacheStats()
	if !ok {
		return CacheStats{}
	}
	return CacheStats{
		Enabled:   true,
		Hits:      st.Hits,
		Misses:    st.Misses,
		Collapsed: st.Collapsed,
		Evictions: st.Evictions,
		Entries:   st.Entries,
		Bytes:     st.Bytes,
		MaxBytes:  st.MaxBytes,
		HitRate:   st.HitRate(),
	}
}

func (s *Server) handleStats(*http.Request, *reqInfo) (any, error) {
	var info IndexStats
	s.live.View(func(ds *core.Dataset, idx core.Index) {
		info = IndexStats{
			Name:         idx.Name(),
			Count:        ds.Count(),
			MemBytes:     idx.MemBytes(),
			DiskBytes:    idx.DiskBytes(),
			PageAccesses: idx.PageAccesses(),
		}
	})
	info.Epoch = s.live.Epoch()
	var pers PersistenceStats
	if s.persStats != nil {
		pers = s.persStats()
	}
	return StatsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Index:         info,
		Cache:         s.cacheStats(),
		Persistence:   pers,
		Admission:     s.adm.stats(),
		Endpoints:     s.endpoints.stats(),
		Clients:       s.clients.stats(),
	}, nil
}

// HealthResponse answers GET /healthz.
type HealthResponse struct {
	Status string `json:"status"`
	Index  string `json:"index"`
	Epoch  uint64 `json:"epoch"`
}

func (s *Server) handleHealth(*http.Request, *reqInfo) (any, error) {
	return HealthResponse{Status: "ok", Index: s.live.Name(), Epoch: s.live.Epoch()}, nil
}
