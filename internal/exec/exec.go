// Package exec is the concurrent batch query engine: it runs MRQ and
// MkNNQ workloads over any core.Index from a pool of worker goroutines,
// preserving the input order of the answers and aggregating the paper's
// cost metrics (compdists, page accesses, wall time) per batch.
//
// The paper's §6.2 observes that pivot-based structures parallelize
// naturally because objects are independent of each other; the same holds
// for queries, which never mutate the index. The engine exploits that:
// every index in the repository answers read-only queries against
// immutable structure state, all page traffic goes through the
// mutex-guarded store.Pager/store.RAF, and all distance computations go
// through the atomic counter of core.Space, so a single index can serve
// many queries concurrently with exact, deterministic results.
//
// Concurrent queries may NOT be interleaved with Insert/Delete on a raw
// index — updates are not synchronized with searches, and batch
// boundaries are the unit of consistency. internal/epoch lifts that
// restriction: wrap the index in an epoch.Live and batches, updates and
// whole-index swaps interleave safely.
//
// The pivot tables keep per-query working memory (query-pivot distances,
// lower-bound columns, verification chunks, the kNN heap) in a
// core.ScratchPool rather than allocating per query. The pool hands each
// concurrent query its own buffers, so the engine's workers share one
// index with zero steady-state allocations on the batched hot paths —
// the pool is part of the read-only query contract above, not an
// exception to it.
package exec

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"metricindex/internal/core"
	"metricindex/internal/epoch"
	"metricindex/internal/obs"
	"metricindex/internal/plan"
)

// Metrics carries the engine's obs handles. All fields must be non-nil;
// an engine built without Metrics records nothing.
type Metrics struct {
	// Batches counts batches dispatched (mx_exec_batches_total).
	Batches *obs.Counter
	// BatchQueries is the distribution of batch sizes
	// (mx_exec_batch_queries).
	BatchQueries *obs.Histogram
	// PredispatchHits counts queries answered from the answer cache
	// during the pre-dispatch sweep (mx_exec_predispatch_hits_total).
	PredispatchHits *obs.Counter
	// QueueWait is how long each dispatched query waited from batch
	// start to the moment a worker picked it up
	// (mx_exec_queue_wait_seconds).
	QueueWait *obs.Histogram
}

// searcher is the query surface of epoch.Live: one Search per Query,
// plus Peek, the answer-cache probe the engine runs per query before
// dispatching a batch. Hits are answered inline and never occupy a
// worker slot, so the pool's concurrency is spent entirely on real
// misses. Peek must be cheap, must not compute distances, and must
// return answers identical to a fresh search at the moment of the call.
type searcher interface {
	Search(q epoch.Query) (epoch.Answer, error)
	Peek(q epoch.Query) (epoch.Answer, bool)
}

// Options configures an Engine.
type Options struct {
	// Workers is the goroutine pool size per batch; <= 0 uses GOMAXPROCS.
	Workers int
	// Metrics, when non-nil, receives per-batch observations.
	Metrics *Metrics
}

// Engine runs batched queries over indexes. An Engine is stateless between
// batches, safe for concurrent use by multiple goroutines, and may be
// shared across indexes (it holds no reference to any index).
type Engine struct {
	workers int
	space   *core.Space
	metrics *Metrics
}

// New creates an engine over the instrumented space shared by the indexes
// it will serve. space may be nil, in which case per-batch CompDists stats
// are reported as zero. Workers <= 0 defaults to GOMAXPROCS.
func New(space *core.Space, opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Engine{workers: w, space: space, metrics: opts.Metrics}
}

// Workers returns the pool size used per batch.
func (e *Engine) Workers() int { return e.workers }

// BatchStats aggregates the paper's cost metrics over one batch.
//
// CompDists and PageAccesses are measured as deltas of the shared
// counters across the batch, so they attribute every distance computation
// on the Space (and every page access on the index) performed while the
// batch ran. Run one batch at a time per Space/index when exact
// attribution matters; concurrent batches still compute correct results
// but blend their counter deltas.
type BatchStats struct {
	// Queries is the number of queries answered.
	Queries int
	// CompDists is the total distance computations during the batch.
	CompDists int64
	// PageAccesses is the total page reads+writes during the batch.
	PageAccesses int64
	// Wall is the elapsed wall-clock time of the whole batch.
	Wall time.Duration
	// P50, P95 and P99 are per-query latency percentiles (nearest-rank)
	// over the queries that actually computed — the SLO-grade numbers a
	// serving layer reports. Unlike Wall they measure individual
	// queries, so they stay meaningful however many workers overlap.
	// Cache hits are excluded: a hit resolves in sub-microsecond time,
	// and folding those samples in deflates every percentile below p(hit
	// rate) to ~0, which misreports the latency of the work the index is
	// really doing. Hit latencies are reported separately below.
	P50, P95, P99 time.Duration
	// HitP50, HitP95 and HitP99 are the latency percentiles of the
	// cache-hit queries alone (zeros when the batch had none).
	HitP50, HitP95, HitP99 time.Duration
	// CacheHits is the number of queries answered from the index's
	// answer cache before dispatch, without computing. 0 when the index
	// has no cache. Cached answers cost no compdists and no page
	// accesses, which is why a hot batch's per-query averages drop.
	CacheHits int
}

// PerQueryCompDists returns the average compdists per query.
func (s BatchStats) PerQueryCompDists() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.CompDists) / float64(s.Queries)
}

// PerQueryPageAccesses returns the average page accesses per query.
func (s BatchStats) PerQueryPageAccesses() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.PageAccesses) / float64(s.Queries)
}

// Throughput returns queries per second over the batch wall time.
func (s BatchStats) Throughput() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Queries) / s.Wall.Seconds()
}

// Result is the answer of a batched workload. Exactly one of IDs (MRQ
// batches) and Neighbors (MkNNQ batches) is set, positionally aligned
// with the batch's query objects.
type Result struct {
	// IDs[i] is the range answer for the i-th query, in the same
	// ascending-id order the sequential call returns.
	IDs [][]int
	// Neighbors[i] is the kNN answer for the i-th query, sorted by
	// ascending distance (ties by id) exactly as the sequential call
	// returns.
	Neighbors [][]core.Neighbor
	// Plans[i] is the strategy that answered the i-th query of a
	// filtered batch (the zero value when it came from the answer
	// cache). Nil for unfiltered batches.
	Plans []plan.Strategy
	// Stats aggregates the batch cost.
	Stats BatchStats
}

// set records the answer of query i.
func (r *Result) set(i int, a epoch.Answer) {
	if r.IDs != nil {
		r.IDs[i] = a.IDs
	} else {
		r.Neighbors[i] = a.Neighbors
	}
	if r.Plans != nil {
		r.Plans[i] = a.Strategy
	}
}

// Batch answers one query shape — q's kind, parameter and filter — for
// every object in objs concurrently (q.Object is replaced by each
// object in turn). Results are positionally aligned with objs
// (deterministic regardless of worker interleaving). An index with an
// answer cache (epoch.Live) is probed per query before dispatch,
// filtered or not; a filtered shape requires such an index, and the
// per-query strategies land in Result.Plans. The first query error or
// context cancellation stops the batch and is returned; partial results
// are discarded.
func (e *Engine) Batch(ctx context.Context, idx core.Index, objs []core.Object, q epoch.Query) (*Result, error) {
	s, _ := idx.(searcher)
	if q.Filter != nil && s == nil {
		return nil, fmt.Errorf("exec: index %s does not support filtered search", idx.Name())
	}
	res := &Result{}
	kind := "range"
	if q.Kind == epoch.KindKNN {
		kind = "knn"
		res.Neighbors = make([][]core.Neighbor, len(objs))
	} else {
		res.IDs = make([][]int, len(objs))
	}
	if q.Filter != nil {
		res.Plans = make([]plan.Strategy, len(objs))
	}
	var peek func(i int) bool
	if s != nil {
		peek = func(i int) bool {
			qi := q
			qi.Object = objs[i]
			a, ok := s.Peek(qi)
			if ok {
				res.set(i, a)
			}
			return ok
		}
	}
	stats, err := e.run(ctx, idx, len(objs), peek, func(i int) error {
		qi := q
		qi.Object = objs[i]
		var a epoch.Answer
		var err error
		switch {
		case s != nil:
			a, err = s.Search(qi)
		case q.Kind == epoch.KindKNN:
			a.Neighbors, err = idx.KNNSearch(objs[i], q.K)
		default:
			a.IDs, err = idx.RangeSearch(objs[i], q.R)
		}
		if err != nil {
			return fmt.Errorf("exec: %s query %d: %w", kind, i, err)
		}
		res.set(i, a)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Stats = stats
	return res, nil
}

// BatchRangeSearch answers MRQ(q, r) for every query concurrently: the
// unfiltered range shape of Batch.
func (e *Engine) BatchRangeSearch(ctx context.Context, idx core.Index, queries []core.Object, r float64) (*Result, error) {
	return e.Batch(ctx, idx, queries, epoch.Query{Kind: epoch.KindRange, R: r})
}

// BatchKNNSearch answers MkNNQ(q, k) for every query concurrently: the
// unfiltered kNN shape of Batch.
func (e *Engine) BatchKNNSearch(ctx context.Context, idx core.Index, queries []core.Object, k int) (*Result, error) {
	return e.Batch(ctx, idx, queries, epoch.Query{Kind: epoch.KindKNN, K: k})
}

// run answers n queries and wraps them with the per-batch cost
// accounting. When peek is non-nil it probes the index's answer cache
// first: hits are served inline during the sweep, and only the misses
// are dispatched through Scatter — a hot batch never waits on the
// worker pool at all. Latency percentiles are reported separately for
// hits and misses (see BatchStats).
func (e *Engine) run(ctx context.Context, idx core.Index, n int, peek func(i int) bool, job func(i int) error) (BatchStats, error) {
	if n == 0 {
		return BatchStats{}, ctx.Err()
	}
	var compBase, paBase int64
	if e.space != nil {
		compBase = e.space.CompDists()
	}
	if idx != nil {
		paBase = idx.PageAccesses()
	}
	durs := make([]time.Duration, n)
	hit := make([]bool, n)
	start := time.Now()
	todo := make([]int, 0, n)
	hits := 0
	for i := 0; i < n; i++ {
		if peek != nil {
			qStart := time.Now()
			if peek(i) {
				durs[i] = time.Since(qStart)
				hit[i] = true
				hits++
				continue
			}
		}
		todo = append(todo, i)
	}
	m := e.metrics
	timed := func(j int) error {
		i := todo[j]
		qStart := time.Now()
		if m != nil {
			// Queue wait: batch arrival to worker pickup for this query.
			m.QueueWait.Observe(qStart.Sub(start).Seconds())
		}
		err := job(i)
		durs[i] = time.Since(qStart)
		return err
	}
	if err := Scatter(ctx, e.workers, len(todo), timed); err != nil {
		return BatchStats{}, err
	}
	if m != nil {
		m.Batches.Inc()
		m.BatchQueries.Observe(float64(n))
		m.PredispatchHits.Add(int64(hits))
	}
	stats := BatchStats{Queries: n, Wall: time.Since(start), CacheHits: hits}
	stats.splitPercentiles(durs, hit)
	if e.space != nil {
		stats.CompDists = e.space.CompDists() - compBase
	}
	if idx != nil {
		// A hot-swappable index (epoch.Live) may replace its structure —
		// and its counter — mid-batch; clamp rather than report a
		// negative delta across the cutover.
		if stats.PageAccesses = idx.PageAccesses() - paBase; stats.PageAccesses < 0 {
			stats.PageAccesses = 0
		}
	}
	return stats, nil
}

// splitPercentiles fills the stats' miss (P50/P95/P99) and hit
// (HitP50/HitP95/HitP99) percentile sets from per-query durations and
// the hit classification mask.
func (s *BatchStats) splitPercentiles(durs []time.Duration, hit []bool) {
	missDurs := make([]time.Duration, 0, len(durs))
	hitDurs := make([]time.Duration, 0, s.CacheHits)
	for i, d := range durs {
		if hit[i] {
			hitDurs = append(hitDurs, d)
		} else {
			missDurs = append(missDurs, d)
		}
	}
	s.P50, s.P95, s.P99 = LatencyPercentiles(missDurs)
	s.HitP50, s.HitP95, s.HitP99 = LatencyPercentiles(hitDurs)
}

// Scatter is the engine's dispatch primitive, exported for other
// scatter-gather layers (the sharded index fans one query out across its
// shards with it). It runs n jobs on a temporary pool of up to `workers`
// goroutines (<= 0 means GOMAXPROCS). Jobs are claimed dynamically off an
// atomic cursor, not in static chunks, so one slow job does not straggle a
// whole chunk; each job writes only its own result slot, which keeps
// callers' output deterministic without post-hoc sorting. The first job
// error — or ctx cancellation — stops the dispatch and is returned.
func Scatter(ctx context.Context, workers, n int, job func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		cursor   atomic.Int64
		firstErr atomic.Pointer[error]
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		e := err
		if firstErr.CompareAndSwap(nil, &e) {
			cancel()
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				if err := job(i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	if errp := firstErr.Load(); errp != nil {
		return *errp
	}
	return ctx.Err()
}

// LatencyPercentiles computes the nearest-rank p50/p95/p99 of a sample of
// latencies. The input is not modified (a sorted copy is taken); an empty
// sample yields zeros. Shared by the batch engine, the bench harness's
// sequential loop, and the server's per-endpoint stats so all three report
// the same definition of a percentile.
func LatencyPercentiles(durs []time.Duration) (p50, p95, p99 time.Duration) {
	if len(durs) == 0 {
		return 0, 0, 0
	}
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := func(q float64) time.Duration {
		i := int(math.Ceil(q*float64(len(sorted)))) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	return rank(0.50), rank(0.95), rank(0.99)
}
