package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"metricindex/internal/cache"
	"metricindex/internal/core"
	"metricindex/internal/exec"
)

// The layer ladder replays the cost pass's queries, without filters,
// on one goroutine at each layer of the read path. Each difference
// between neighbouring rungs is one layer's cost:
//
//	kernel      the metric over as many objects as the index rung computes
//	            distances for that query (batch kernels where they exist)
//	index       the index under epoch.Live, called directly
//	live        epoch.Live, answer cache detached
//	live_cache  epoch.Live with an empty cache (every query a miss)
//	exec        the batch engine over Live, batches of 16 same-kind queries
//	handler     Server.Handler() through httptest, no socket
//	http        the loopback client against the listening server
var rungs = []string{"kernel", "index", "live", "live_cache", "exec", "handler", "http"}

type rungResult struct {
	usPerQuery     float64
	allocsPerQuery float64
}

// rungMinTime is how long one measurement of a rung runs at least: the
// query list is replayed until it has.
const rungMinTime = 250 * time.Millisecond

// measureRung replays the query list (n queries per run) until
// rungMinTime has passed, calling prepare untimed before each replay,
// and reports wall time and heap allocations per query.
func measureRung(n int, prepare func(), run func() error) (rungResult, error) {
	runtime.GC()
	var elapsed time.Duration
	var mallocs uint64
	queries := 0
	for elapsed < rungMinTime {
		prepare()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		err := run()
		elapsed += time.Since(start)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return rungResult{}, err
		}
		mallocs += m1.Mallocs - m0.Mallocs
		queries += n
	}
	return rungResult{
		usPerQuery:     float64(elapsed) / float64(time.Microsecond) / float64(queries),
		allocsPerQuery: float64(mallocs) / float64(queries),
	}, nil
}

// ladderRounds is how often each rung is measured; rounds interleave
// the rungs and the fastest round of each is kept, so a stretch of
// machine noise does not land on one rung only.
const ladderRounds = 3

// runLadder measures every rung over the first LadderLen cost-pass
// queries, and returns with the rungs the mean compdists per query of
// the index rung. The server must be quiet; the ladder replaces the live
// index's answer cache with empty ones as it goes.
func runLadder(c *client, st *stack, ops []op) (map[string]rungResult, float64, error) {
	in := c.in
	if len(ops) > in.w.LadderLen {
		ops = ops[:in.w.LadderLen]
	}
	plain := make([]op, len(ops))
	var knnQ, rangeQ []core.Object
	for i, o := range ops {
		plain[i] = op{Kind: o.Kind, Query: o.Query, Filter: -1}
		if o.Kind == opKNN {
			knnQ = append(knnQ, in.queryAt(o.Query))
		} else {
			rangeQ = append(rangeQ, in.queryAt(o.Query))
		}
	}
	objs := liveObjects(st)
	metric := st.space.Metric()
	buf := make([]float64, len(objs))
	eng := exec.New(st.space, exec.Options{Workers: 1})
	h := st.srv.Handler()
	ctx := context.Background()

	search := func(o op, knn func(core.Object, int) error, rng func(core.Object, float64) error) error {
		if o.Kind == opKNN {
			return knn(in.queryAt(o.Query), in.w.K)
		}
		return rng(in.queryAt(o.Query), in.radius)
	}
	// The kernel rung computes, per query, the distances the index rung
	// computes for that query, counted on this unfiltered replay.
	perQuery := make([]int, len(plain))
	var total int64
	var err error
	st.live.View(func(_ *core.Dataset, idx core.Index) {
		for i, o := range plain {
			cd0 := st.space.CompDists()
			if err = search(o,
				func(q core.Object, k int) error { _, err := idx.KNNSearch(q, k); return err },
				func(q core.Object, r float64) error { _, err := idx.RangeSearch(q, r); return err },
			); err != nil {
				return
			}
			perQuery[i] = int(st.space.CompDists() - cd0)
			total += int64(perQuery[i])
		}
	})
	if err != nil {
		return nil, 0, err
	}
	liveRung := func() error {
		for _, o := range plain {
			if err := search(o,
				func(q core.Object, k int) error { _, _, err := st.live.KNNSearchAt(q, k); return err },
				func(q core.Object, r float64) error { _, _, err := st.live.RangeSearchAt(q, r); return err },
			); err != nil {
				return err
			}
		}
		return nil
	}
	type rung struct {
		name  string
		cache bool // runs against a fresh, empty answer cache (else none)
		run   func() error
	}
	ladder := []rung{
		{"kernel", false, func() error {
			for i, o := range plain {
				distances(metric, in.queryAt(o.Query), objs, perQuery[i], buf)
			}
			return nil
		}},
		{"index", false, func() (err error) {
			st.live.View(func(_ *core.Dataset, idx core.Index) {
				for _, o := range plain {
					if err = search(o,
						func(q core.Object, k int) error { _, err := idx.KNNSearch(q, k); return err },
						func(q core.Object, r float64) error { _, err := idx.RangeSearch(q, r); return err },
					); err != nil {
						return
					}
				}
			})
			return err
		}},
		{"live", false, liveRung},
		{"live_cache", true, liveRung},
		{"exec", true, func() error {
			for _, b := range chunks(knnQ, 16) {
				if _, err := eng.BatchKNNSearch(ctx, st.live, b, in.w.K); err != nil {
					return err
				}
			}
			for _, b := range chunks(rangeQ, 16) {
				if _, err := eng.BatchRangeSearch(ctx, st.live, b, in.radius); err != nil {
					return err
				}
			}
			return nil
		}},
		{"handler", true, func() error {
			var scratch []byte
			for _, o := range plain {
				path, body := c.encode(o, scratch[:0])
				scratch = body
				req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
				req.Header.Set("Content-Type", "application/json")
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					return fmt.Errorf("handler rung: %s: status %d", path, w.Code)
				}
			}
			return nil
		}},
		{"http", true, func() error {
			var scratch []byte
			for _, o := range plain {
				if res := c.do(o, &scratch, false); !res.ok {
					return fmt.Errorf("http rung: status %d: %v", res.status, res.err)
				}
			}
			return nil
		}},
	}
	out := map[string]rungResult{}
	for round := 0; round < ladderRounds; round++ {
		for _, r := range ladder {
			prepare := func() {
				var fresh *cache.Cache
				if r.cache {
					fresh = cache.New(cache.Options{MaxBytes: cacheMB << 20})
				}
				st.live.SetCache(fresh)
			}
			res, err := measureRung(len(plain), prepare, r.run)
			if err != nil {
				return nil, 0, err
			}
			if best, ok := out[r.name]; !ok || res.usPerQuery < best.usPerQuery {
				out[r.name] = res
			}
		}
	}
	return out, float64(total) / float64(len(plain)), nil
}

func chunks(qs []core.Object, size int) [][]core.Object {
	var out [][]core.Object
	for len(qs) > 0 {
		m := min(size, len(qs))
		out = append(out, qs[:m])
		qs = qs[m:]
	}
	return out
}

// distances computes d(q, o) for count objects of objs (cycling),
// through the metric's batch kernel when it has one, into buf.
func distances(m core.Metric, q core.Object, objs []core.Object, count int, buf []float64) {
	bm, batch := m.(core.BatchMetric)
	for count > 0 {
		part := objs[:min(count, len(objs))]
		if batch {
			bm.DistanceMany(q, part, buf)
		} else {
			for i, o := range part {
				buf[i] = m.Distance(q, o)
			}
		}
		count -= len(part)
	}
}

// nsPerDistance times the workload's metric over its own dataset: each
// of the first queries against every live object, with batch kernels
// where the metric has them, for at least minTime.
func nsPerDistance(in *inputs, st *stack, queries int, minTime time.Duration) float64 {
	objs := liveObjects(st)
	m := st.space.Metric()
	buf := make([]float64, len(objs))
	count := 0
	start := time.Now()
	for i := 0; time.Since(start) < minTime || i < queries; i++ {
		distances(m, in.queryAt(i%queries), objs, len(objs), buf)
		count += len(objs)
	}
	return float64(time.Since(start)) / float64(count)
}

// liveObjects lists the live dataset's objects.
func liveObjects(st *stack) []core.Object {
	var objs []core.Object
	st.live.View(func(ds *core.Dataset, _ core.Index) {
		for _, o := range ds.Objects() {
			if o != nil {
				objs = append(objs, o)
			}
		}
	})
	return objs
}
