// Command benchjson runs the repository's throughput benchmarks as a
// plain program and emits machine-readable JSON — the measurement half
// of the CI bench gate. It covers the batch-vs-sequential engine
// comparison, the answer cache's cold/hot paths, and sequential-vs-
// parallel index construction (BKT node-level build, PM-tree bulk
// load), reporting queries (or objects indexed) per second — best of
// -reps repetitions, to shed scheduler noise — plus the cache hit rate.
//
// Two modes:
//
//	benchjson -out BENCH_PR.json                  # measure and write
//	benchjson -baseline BENCH_BASELINE.json \
//	          -current BENCH_PR.json \
//	          -max-regress 0.25                   # gate: fail on >25% q/s regression
//
// The gate compares every benchmark present in both files and exits
// nonzero when any current q/s falls below (1 - max-regress) × baseline.
// Absolute q/s varies across machines; the committed baseline should be
// refreshed (make bench-baseline) whenever the CI runner class changes.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"metricindex"
	"metricindex/internal/dataset"
	"metricindex/internal/obs"
	"metricindex/internal/store"
)

// Result is one benchmark's measurement.
type Result struct {
	QPS     float64 `json:"qps"`
	Queries int64   `json:"queries"`
	// HitRate is the answer-cache hit rate over the measurement (cache
	// benchmarks only).
	HitRate float64 `json:"hit_rate,omitempty"`
}

// Report is the emitted JSON document.
type Report struct {
	N          int               `json:"n"`
	Queries    int               `json:"queries"`
	K          int               `json:"k"`
	Workers    int               `json:"workers"`
	GoMaxProcs int               `json:"gomaxprocs"`
	Benchmarks map[string]Result `json:"benchmarks"`
	// Obs is a flat snapshot of the run's observability registry —
	// cost counters (compdists, page traffic, cache hits) and Go
	// runtime numbers — alongside the q/s figures. Informational: the
	// gate compares only Benchmarks.
	Obs map[string]float64 `json:"obs,omitempty"`
}

func main() {
	var (
		out        = flag.String("out", "", "write measurements to this JSON file (measure mode)")
		baseline   = flag.String("baseline", "", "baseline JSON to gate against (gate mode, with -current)")
		current    = flag.String("current", "", "current JSON to gate (gate mode)")
		maxRegress = flag.Float64("max-regress", 0.25, "gate: maximum tolerated q/s regression fraction")
		n          = flag.Int("n", 10000, "dataset cardinality")
		queries    = flag.Int("queries", 64, "workload size")
		k          = flag.Int("k", 10, "MkNNQ k")
		reps       = flag.Int("reps", 3, "repetitions per benchmark; the best is reported")
		minDur     = flag.Duration("min-duration", 200*time.Millisecond, "minimum measured time per repetition")
	)
	flag.Parse()

	if *baseline != "" || *current != "" {
		if *baseline == "" || *current == "" {
			fmt.Fprintln(os.Stderr, "benchjson: gate mode needs both -baseline and -current")
			os.Exit(2)
		}
		if err := gate(*baseline, *current, *maxRegress); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	if *out == "" {
		fmt.Fprintln(os.Stderr, "benchjson: need -out (measure mode) or -baseline/-current (gate mode)")
		os.Exit(2)
	}
	rep, err := measure(*n, *queries, *k, *reps, *minDur)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
	printReport(rep)
}

// measure builds the benchmark fixture once and times every benchmark.
func measure(n, queries, k, reps int, minDur time.Duration) (*Report, error) {
	gen, err := metricindex.GenerateDataset(metricindex.DatasetLA, n, queries, 7)
	if err != nil {
		return nil, err
	}
	ds := gen.Dataset
	pivots, err := metricindex.SelectPivots(ds, 5, 3)
	if err != nil {
		return nil, err
	}
	idx, err := metricindex.NewLAESA(ds, pivots)
	if err != nil {
		return nil, err
	}
	eng := metricindex.NewEngine(ds.Space(), metricindex.EngineOptions{})
	radius := gen.MaxDistance / 10
	ctx := context.Background()

	rep := &Report{
		N: n, Queries: queries, K: k,
		Workers: eng.Workers(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Benchmarks: map[string]Result{},
	}

	// bench times one workload-shaped function: fn answers the whole
	// workload once and returns the number of queries answered; it is
	// looped until minDur elapses, repeated `reps` times, best q/s wins.
	bench := func(name string, setup func() error, fn func() (int64, error)) error {
		var best Result
		for rep := 0; rep < reps; rep++ {
			if setup != nil {
				if err := setup(); err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
			}
			var answered int64
			start := time.Now()
			for time.Since(start) < minDur {
				nq, err := fn()
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				answered += nq
			}
			if qps := float64(answered) / time.Since(start).Seconds(); qps > best.QPS {
				best.QPS = qps
				best.Queries = answered
			}
		}
		rep.Benchmarks[name] = best
		return nil
	}

	if err := bench("seq_knn", nil, func() (int64, error) {
		for _, q := range gen.Queries {
			if _, err := idx.KNNSearch(q, k); err != nil {
				return 0, err
			}
		}
		return int64(len(gen.Queries)), nil
	}); err != nil {
		return nil, err
	}
	if err := bench("batch_knn", nil, func() (int64, error) {
		if _, err := eng.BatchKNNSearch(ctx, idx, gen.Queries, k); err != nil {
			return 0, err
		}
		return int64(len(gen.Queries)), nil
	}); err != nil {
		return nil, err
	}
	if err := bench("seq_mrq", nil, func() (int64, error) {
		for _, q := range gen.Queries {
			if _, err := idx.RangeSearch(q, radius); err != nil {
				return 0, err
			}
		}
		return int64(len(gen.Queries)), nil
	}); err != nil {
		return nil, err
	}
	if err := bench("batch_mrq", nil, func() (int64, error) {
		if _, err := eng.BatchRangeSearch(ctx, idx, gen.Queries, radius); err != nil {
			return 0, err
		}
		return int64(len(gen.Queries)), nil
	}); err != nil {
		return nil, err
	}

	// Kernel benchmarks: one "query" is a full distance sweep of the
	// dataset. Three shapes of the same L2 computation — the pairwise
	// scalar loop every index started from, the row-slice batch kernel
	// (DistanceMany over []Object), and the flat row-major kernel
	// (DistanceFlat over one contiguous block). Flat-vs-rows is the gap
	// the struct-of-arrays pivot-table layout banks on.
	flat, dim, ok := ds.FlatVectors()
	if !ok {
		return nil, fmt.Errorf("kernel benchmarks: LA dataset has no flat-vector form")
	}
	bm, ok := ds.Space().Metric().(metricindex.BatchMetric)
	if !ok {
		return nil, fmt.Errorf("kernel benchmarks: metric %T lacks batch kernels", ds.Space().Metric())
	}
	objs := ds.Objects()
	kout := make([]float64, ds.Len())
	scalar := ds.Space().Metric()
	if err := bench("kernel_l2_scalar", nil, func() (int64, error) {
		for _, q := range gen.Queries {
			for i, o := range objs {
				if o != nil {
					kout[i] = scalar.Distance(q, o)
				}
			}
		}
		return int64(len(gen.Queries)), nil
	}); err != nil {
		return nil, err
	}
	if err := bench("kernel_l2_rows", nil, func() (int64, error) {
		for _, q := range gen.Queries {
			bm.DistanceMany(q, objs, kout)
		}
		return int64(len(gen.Queries)), nil
	}); err != nil {
		return nil, err
	}
	if err := bench("kernel_l2_flat", nil, func() (int64, error) {
		for _, q := range gen.Queries {
			bm.DistanceFlat(q.(metricindex.Vector), flat, dim, kout)
		}
		return int64(len(gen.Queries)), nil
	}); err != nil {
		return nil, err
	}

	// Cache benchmarks run through an epoch-synchronized front with the
	// answer cache attached. Cold: a fresh cache per workload pass, so
	// every query pays the miss-and-fill path on top of the search. Hot:
	// primed once, then every pass is pure hits.
	if err := bench("cache_cold_knn", nil, func() (int64, error) {
		cold := metricindex.NewLive(ds, idx, metricindex.CacheOptions{})
		for _, q := range gen.Queries {
			if _, err := cold.KNNSearch(q, k); err != nil {
				return 0, err
			}
		}
		return int64(len(gen.Queries)), nil
	}); err != nil {
		return nil, err
	}
	hot := metricindex.NewLive(ds, idx, metricindex.CacheOptions{})
	prime := func() error {
		for _, q := range gen.Queries {
			if _, err := hot.KNNSearch(q, k); err != nil {
				return err
			}
		}
		return nil
	}
	if err := bench("cache_hot_knn", prime, func() (int64, error) {
		for _, q := range gen.Queries {
			if _, err := hot.KNNSearch(q, k); err != nil {
				return 0, err
			}
		}
		return int64(len(gen.Queries)), nil
	}); err != nil {
		return nil, err
	}
	if st, ok := hot.CacheStats(); ok {
		r := rep.Benchmarks["cache_hot_knn"]
		r.HitRate = st.HitRate()
		rep.Benchmarks["cache_hot_knn"] = r
	}

	// Filtered kNN through the selectivity-aware planner: datagen-style
	// attribute bags, a mid-selectivity predicate (≈25% of rows), and a
	// cache-less live front so every query runs a real plan — on LAESA
	// that is the probe strategy, the predicate pushed into candidate
	// verification. Measures the full filtered path: estimate, choose,
	// execute.
	if err := dataset.AttachAttrs(gen, 13); err != nil {
		return nil, err
	}
	flive := metricindex.NewLive(ds, idx)
	pred, err := metricindex.ParseFilter(`stock < 25`)
	if err != nil {
		return nil, err
	}
	if err := bench("filtered_knn", nil, func() (int64, error) {
		for _, q := range gen.Queries {
			if _, err := flive.Search(metricindex.Query{Object: q, Kind: metricindex.KindKNN, K: k, Filter: pred}); err != nil {
				return 0, err
			}
		}
		return int64(len(gen.Queries)), nil
	}); err != nil {
		return nil, err
	}

	// Construction benchmarks: objects indexed per second, sequential vs
	// parallel, for one in-memory tree (BKT, node-level parallelism on
	// the discrete Synthetic dataset) and one disk structure (PM-tree,
	// insertion build vs partitioned bulk load on LA). The parallel
	// builds produce identical trees / byte-identical bulk volumes; only
	// the wall clock moves.
	synth, err := metricindex.GenerateDataset(metricindex.DatasetSynthetic, n, 1, 11)
	if err != nil {
		return nil, err
	}
	buildBench := func(name string, fn func() error) error {
		return bench(name, nil, func() (int64, error) {
			if err := fn(); err != nil {
				return 0, err
			}
			return int64(n), nil
		})
	}
	if err := buildBench("build_bkt_seq", func() error {
		_, err := metricindex.NewBKT(synth.Dataset, metricindex.TreeOptions{
			Seed: 3, MaxDistance: synth.MaxDistance,
		})
		return err
	}); err != nil {
		return nil, err
	}
	if err := buildBench("build_bkt_par", func() error {
		_, err := metricindex.NewBKT(synth.Dataset, metricindex.TreeOptions{
			Seed: 3, MaxDistance: synth.MaxDistance, Workers: -1,
		})
		return err
	}); err != nil {
		return nil, err
	}
	if err := buildBench("build_pmtree_seq", func() error {
		_, err := metricindex.NewPMTree(ds, pivots, metricindex.DiskOptions{})
		return err
	}); err != nil {
		return nil, err
	}
	if err := buildBench("build_pmtree_par", func() error {
		_, err := metricindex.NewPMTreeParallel(ds, pivots, metricindex.DiskOptions{}, -1)
		return err
	}); err != nil {
		return nil, err
	}
	rep.Obs = obsSnapshot(ds, hot)
	return rep, nil
}

// obsSnapshot registers pull-based views over the run's cost counters —
// the same sources mserve's /metrics exposes — plus Go runtime numbers,
// and returns one flat scrape of them.
func obsSnapshot(ds *metricindex.Dataset, hot *metricindex.Live) map[string]float64 {
	reg := obs.NewRegistry()
	reg.CounterFunc("mx_compdists_total",
		"Distance computations over the whole run.",
		func() float64 { return float64(ds.Space().CompDists()) })
	reg.CounterFunc("mx_store_page_reads_total",
		"Physical page reads across all pager volumes.",
		func() float64 { r, _, _ := store.GlobalPageStats(); return float64(r) })
	reg.CounterFunc("mx_store_page_writes_total",
		"Page writes across all pager volumes.",
		func() float64 { _, w, _ := store.GlobalPageStats(); return float64(w) })
	reg.CounterFunc("mx_store_cache_hits_total",
		"Pager buffer-cache hits.",
		func() float64 { _, _, h := store.GlobalPageStats(); return float64(h) })
	cacheVal := func(sel func(metricindex.CacheStats) int64) func() float64 {
		return func() float64 {
			st, ok := hot.CacheStats()
			if !ok {
				return 0
			}
			return float64(sel(st))
		}
	}
	reg.CounterFunc("mx_cache_hits_total",
		"Answer-cache hits on the hot-cache fixture.",
		cacheVal(func(st metricindex.CacheStats) int64 { return st.Hits }))
	reg.CounterFunc("mx_cache_misses_total",
		"Answer-cache misses on the hot-cache fixture.",
		cacheVal(func(st metricindex.CacheStats) int64 { return st.Misses }))
	reg.GaugeFunc("mx_runtime_heap_alloc_bytes",
		"Live heap bytes at snapshot time.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	reg.CounterFunc("mx_runtime_total_alloc_bytes",
		"Cumulative heap bytes allocated over the run.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.TotalAlloc)
		})
	reg.CounterFunc("mx_runtime_gc_total",
		"Completed GC cycles over the run.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.NumGC)
		})
	return reg.Snapshot()
}

// gate fails when any shared benchmark regressed beyond the tolerance.
func gate(baselinePath, currentPath string, maxRegress float64) error {
	base, err := load(baselinePath)
	if err != nil {
		return err
	}
	cur, err := load(currentPath)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		if _, ok := cur.Benchmarks[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("no common benchmarks between %s and %s", baselinePath, currentPath)
	}
	if base.GoMaxProcs != cur.GoMaxProcs || base.N != cur.N || base.Queries != cur.Queries {
		fmt.Printf("WARNING: baseline environment differs (gomaxprocs %d vs %d, n %d vs %d, queries %d vs %d)\n",
			base.GoMaxProcs, cur.GoMaxProcs, base.N, cur.N, base.Queries, cur.Queries)
		fmt.Println("WARNING: absolute q/s is not comparable across machine classes — refresh the")
		fmt.Println("WARNING: baseline from this runner (make bench-baseline, or commit a known-good BENCH_PR.json)")
	}
	failed := 0
	fmt.Printf("%-16s %14s %14s %8s\n", "benchmark", "baseline q/s", "current q/s", "ratio")
	for _, name := range names {
		b, c := base.Benchmarks[name], cur.Benchmarks[name]
		ratio := 0.0
		if b.QPS > 0 {
			ratio = c.QPS / b.QPS
		}
		status := ""
		if ratio < 1-maxRegress {
			status = "  REGRESSION"
			failed++
		}
		fmt.Printf("%-16s %14.0f %14.0f %7.2fx%s\n", name, b.QPS, c.QPS, ratio, status)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d benchmarks regressed more than %.0f%%", failed, len(names), 100*maxRegress)
	}
	fmt.Printf("all %d benchmarks within %.0f%% of baseline\n", len(names), 100*maxRegress)
	return nil
}

func load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func printReport(rep *Report) {
	names := make([]string, 0, len(rep.Benchmarks))
	for name := range rep.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := rep.Benchmarks[name]
		extra := ""
		if r.HitRate > 0 {
			extra = fmt.Sprintf("  (%.0f%% hit rate)", 100*r.HitRate)
		}
		fmt.Printf("  %-16s %12.0f q/s%s\n", name, r.QPS, extra)
	}
}
