// Command perfbench is the repository's benchmark of the served query
// path: it builds the serving stack cmd/mserve builds (server.New over
// epoch.Live, the bench builders, 5 HFI pivots, the 64 MB answer cache,
// and for the durable workload a snapshot plus a WAL with fsync
// "always"), serves it on a 127.0.0.1 listener in this process, and
// drives it from this process over at most two connections.
//
//	python3 perfbench/run.py --workload geo-serve --seed 1 --seconds 20 --trace 0
//
// Each run: set-up (timed several times), a sequential cost pass whose
// every answer is checked, a warm-up, a closed-loop phase, an open-loop
// phase at the workload's fixed rate, and a check of a seeded sample of
// answers on the quiesced server. --trace 1 repeats the run with span
// recording and the layer ladder and prints the per-layer metrics. The
// last line of standard output is the JSON result; a wrong answer exits
// 1 and names the workload and the query. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"metricindex/internal/persist"
)

// unit names of the printed metrics.
const (
	unitS     = "s"
	unitUS    = "us"
	unitNS    = "ns"
	unitQPS   = "1/s"
	unitCount = "count"
	unitBytes = "bytes"
	unitRatio = "ratio"
)

// metricDef is one metric the JSON line carries.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of a --trace 0 run's JSON line: every
// workload measures every one of them, none is ever 0, and each repeats
// across runs within its bound in BENCHMARK.json. The wall-clock load
// metrics (qps and the open-loop latencies), fail_frac and pa_per_query
// are printed in the report lines only: they drift across runs further
// than any bound allows, or are 0 or absent on some workload (see
// README.md).
var endToEnd = []metricDef{
	{"setup_s", unitS},
	{"compdists_per_query", unitCount},
	{"mem_bytes", unitBytes},
	{"heap_bytes", unitBytes},
}

// perLayer are the metrics of a --trace 1 run that every workload
// measures. A count or ratio of a layer a workload does not reach reads
// 0; timings of such layers are printed in the report lines only.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"http.self_us", unitUS},
		{"client.late_p99_us", unitUS},
		{"server.self_us.knn", unitUS},
		{"server.self_us.range", unitUS},
		{"server.resp_bytes", unitBytes},
	}
	for _, r := range rungs {
		defs = append(defs, metricDef{"ladder." + r + ".us_per_query", unitUS},
			metricDef{"ladder." + r + ".allocs_per_query", unitCount})
	}
	return append(defs,
		metricDef{"cache.hit_ratio", unitRatio},
		metricDef{"cache.evictions_per_kquery", unitCount},
		metricDef{"plan.pre_share", unitRatio},
		metricDef{"plan.probe_share", unitRatio},
		metricDef{"plan.post_share", unitRatio},
		metricDef{"shard.straggler_ratio", unitRatio},
		metricDef{"index.knn_us", unitUS},
		metricDef{"index.range_us", unitUS},
		metricDef{"index.answer_yield", unitRatio},
		metricDef{"core.ns_per_distance", unitNS},
		metricDef{"core.kernel_share", unitRatio},
		metricDef{"store.reads_per_query", unitCount},
		metricDef{"store.buffer_hit_ratio", unitRatio},
		metricDef{"pa_per_query", unitCount},
		metricDef{"persist.bytes_per_write", unitBytes},
		metricDef{"persist.replay_records", unitCount},
		metricDef{"runtime.alloc_bytes_per_query", unitBytes},
		metricDef{"runtime.gc_per_kquery", unitCount},
		metricDef{"trace.overhead", unitRatio},
	)
}()

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report collects every metric a run measured, in measurement order,
// for the report lines; the JSON line selects from it.
type report struct {
	names  []string
	values map[string]value
}

func (r *report) set(name, unit string, v float64) {
	if r.values == nil {
		r.values = map[string]value{}
	}
	if _, ok := r.values[name]; !ok {
		r.names = append(r.names, name)
	}
	r.values[name] = value{v, unit}
}

// wrongAnswer marks a correctness failure (as opposed to a run that
// could not be carried out).
type wrongAnswer struct{ err error }

func (w wrongAnswer) Error() string { return w.err.Error() }

func main() {
	var (
		name    = flag.String("workload", "", "workload: geo-serve, words-shard or hybrid-rw")
		seed    = flag.Int64("seed", 1, "seed every input of the run is generated from")
		seconds = flag.Int("seconds", 20, "seconds of measured load, split between the closed and the open loop")
		traced  = flag.Int("trace", 0, "1 = traced run: record spans, run the layer ladder, print per-layer metrics")
		dir     = flag.String("dir", filepath.Join(".bench_build", "perfbench"), "directory for the run's files and trace output")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds must be at least 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, tl, err := execute(w, *seed, *seconds, *traced == 1, *dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s (seed %d): %v\n", w.Name, *seed, err)
		if !errors.As(err, new(wrongAnswer)) {
			os.Exit(2)
		}
	}
	for _, n := range rep.names {
		v := rep.values[n]
		fmt.Printf("%-32s %16.6g %s\n", n, v.Value, v.Unit)
	}
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
	}
	res := result{Correct: err == nil, Metrics: map[string]value{}}
	if tl != nil {
		res.Attempted, res.Failed = tl.attempted, tl.failed
	}
	if res.Attempted == 0 {
		res.Attempted = 1 // the cost pass and checks ran; the schema wants >= 1
	}
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok {
			v = value{0, d.unit}
		}
		res.Metrics[d.name] = v
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if err != nil {
		os.Exit(1)
	}
}

// execute runs one workload end to end and returns every metric it
// measured and the tally of the timed phases.
func execute(w workload, seed int64, seconds int, traced bool, dir string) (*report, *tally, error) {
	rep := &report{}
	in, err := makeInputs(w, seed)
	if err != nil {
		return rep, nil, err
	}
	work := filepath.Join(dir, "runs", fmt.Sprintf("%s-%d-%d", w.Name, seed, os.Getpid()))
	defer os.RemoveAll(work)
	f, err := prepare(in, work)
	if err != nil {
		return rep, nil, fmt.Errorf("prepare: %w", err)
	}
	in.gen = nil

	var rec *recorder
	if traced {
		rec = newRecorder(1 << 19)
	}

	st, setups, heap, err := timedSetUps(in, f, rec)
	if err != nil {
		return rep, nil, err
	}
	defer st.stop()
	rep.set("setup_s", unitS, median(setups).Seconds())
	mem := st.live.MemBytes() + st.live.DiskBytes()

	c := newClient(in, st.base, rec)
	defer c.close()

	// Cost pass: sequential, distinct, every answer checked.
	costOps := in.costOps()
	setRec(rec, true)
	cp, err := runCostPass(c, st, costOps)
	setRec(rec, false)
	if err != nil {
		return rep, nil, err
	}
	rep.set("compdists_per_query", unitCount, cp.perQ(cp.compdists))
	rep.set("pa_per_query", unitCount, cp.perQ(cp.pa))
	rep.set("mem_bytes", unitBytes, float64(mem))
	rep.set("heap_bytes", unitBytes, float64(heap))
	for _, s := range []string{"pre", "probe", "post"} {
		if w.FilterFrac > 0 {
			rep.set("cost.plan_"+s, unitCount, float64(cp.strategies[s]))
		}
	}

	// Load: warm-up, closed loop, open loop. Distinct-query workloads
	// take stream positions after the cost pass and the check sample.
	var next atomic.Int64
	streamBase := w.CostProbes + w.Checks
	c.closedLoop(time.Second, &next, streamBase)
	cache0, _ := st.live.CacheStats()
	wal0 := walStats(st)
	measured := time.Duration(seconds) * time.Second
	openDur := time.Duration(float64(measured) * w.OpenShare)
	closedDur := measured - openDur
	// A traced run alternates recording off and on in traceSlices pairs
	// of slices, so machine drift lands on both sides alike. The off
	// slices give qps and the runtime counters, the on slices tracedQPS.
	// The decorators are installed on both sides: trace.overhead is the
	// cost of recording only.
	slices := 1
	if traced {
		slices = 2 * traceSlices
	}
	var off, on closedSide
	timed := newTally()
	for i := 0; i < slices; i++ {
		recording := i%2 == 1
		setRec(rec, recording)
		side := &off
		if recording {
			side = &on
		}
		// Every timed phase starts right after a collection, so where
		// the collector's cycles fall in a phase does not depend on what
		// ran before it.
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t, e := c.closedLoop(closedDur/time.Duration(slices), &next, streamBase)
		runtime.ReadMemStats(&m1)
		timed.merge(t)
		side.queries += t.queries
		side.elapsed += e
		side.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		side.gcs += m1.NumGC - m0.NumGC
	}
	qps := off.qps()
	rep.set("qps", unitQPS, qps)

	setRec(rec, true)
	runtime.GC()
	open, ol := c.openLoop(openDur, &next, streamBase)
	setRec(rec, false)
	timed.merge(open)
	cache1, _ := st.live.CacheStats()
	wal1 := walStats(st)

	reads := append(append([]time.Duration(nil), open.lat[opKNN]...), open.lat[opRange]...)
	rep.set("read_samples", unitCount, float64(len(reads)))
	rep.set("read_p50_us", unitUS, micros(percentile(reads, 0.50)))
	rep.set("read_p99_us", unitUS, micros(percentile(reads, 0.99)))
	if b := open.lat[opBatch]; len(b) > 0 {
		rep.set("batch_p50_us", unitUS, micros(percentile(b, 0.50)))
	}
	if wr := open.lat[opInsert]; len(wr) > 0 {
		rep.set("write_p50_us", unitUS, micros(percentile(wr, 0.50)))
		rep.set("write_p90_us", unitUS, micros(percentile(wr, 0.90)))
	}
	rep.set("fail_frac", unitRatio, float64(timed.failed)/float64(max(timed.attempted, 1)))
	rep.set("client.late_p99_us", unitUS, micros(percentile(ol.late, 0.99)))

	// Correctness on the quiesced server.
	if err := runChecks(c, st, in.checkOps()); err != nil {
		return rep, timed, err
	}
	if !traced {
		return rep, timed, nil
	}

	// Per-layer metrics.
	loadQueries := float64(max(off.queries, 1))
	rep.set("runtime.alloc_bytes_per_query", unitBytes, float64(off.allocBytes)/loadQueries)
	rep.set("runtime.gc_per_kquery", unitCount, float64(off.gcs)*1000/loadQueries)
	rep.set("trace.overhead", unitRatio, 1-on.qps()/qps)
	served := float64((cache1.Hits - cache0.Hits) + (cache1.Collapsed - cache0.Collapsed))
	lookups := served + float64(cache1.Misses-cache0.Misses)
	rep.set("cache.hit_ratio", unitRatio, ratio(served, lookups))
	rep.set("cache.evictions_per_kquery", unitCount, ratio(float64(cache1.Evictions-cache0.Evictions)*1000, float64(timed.queries)))
	filteredN := 0.0
	for _, n := range timed.strategies {
		filteredN += float64(n)
	}
	for _, s := range []string{"pre", "probe", "post"} {
		rep.set("plan."+s+"_share", unitRatio, ratio(float64(timed.strategies[s]), filteredN))
	}
	rep.set("index.answer_yield", unitRatio, ratio(float64(cp.answers), float64(cp.compdists)))
	rep.set("store.reads_per_query", unitCount, cp.perQ(cp.pageReads))
	rep.set("store.buffer_hit_ratio", unitRatio, ratio(float64(cp.bufferHits), float64(cp.pageReads+cp.bufferHits)))
	rep.set("persist.bytes_per_write", unitBytes, ratio(float64(wal1.Bytes-wal0.Bytes), float64(wal1.Records-wal0.Records)))
	rep.set("persist.replay_records", unitCount, float64(st.replayed))
	if w.Durable {
		rep.set("persist.restore_s", unitS, st.restoreTime.Seconds())
	}

	ladder, ladderCD, err := runLadder(c, st, costOps)
	if err != nil {
		return rep, timed, err
	}
	for _, r := range rungs {
		rep.set("ladder."+r+".us_per_query", unitUS, ladder[r].usPerQuery)
		rep.set("ladder."+r+".allocs_per_query", unitCount, ladder[r].allocsPerQuery)
	}
	ns := nsPerDistance(in, st, 16, 200*time.Millisecond)
	rep.set("core.ns_per_distance", unitNS, ns)
	rep.set("core.kernel_share", unitRatio, ratio(ladderCD*ns/1e3, ladder["index"].usPerQuery))

	// Every handler has returned once the server is down; only then are
	// the spans complete.
	if err := st.stop(); err != nil {
		return rep, timed, err
	}
	spans := rec.recorded()
	link(spans, c.keys)
	spanMetrics(rep, spans, w)
	rep.set("trace.dropped_spans", unitCount, float64(rec.dropped.Load()))

	tracePath := filepath.Join(dir, "traces", fmt.Sprintf("%s-%d.json", w.Name, seed))
	if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
		return rep, timed, err
	}
	if err := writeTrace(tracePath, spans); err != nil {
		return rep, timed, err
	}
	fmt.Println("trace written to", tracePath)
	return rep, timed, nil
}

// timedSetUps sets the stack up Setups times, timing each, and keeps
// the last one serving. heap is the live heap that last set-up added.
func timedSetUps(in *inputs, f *files, rec *recorder) (st *stack, setups []time.Duration, heap int64, err error) {
	for i := 0; i < in.w.Setups; i++ {
		if in.w.Durable {
			if err := f.resetWAL(); err != nil {
				return nil, nil, 0, err
			}
		}
		last := i == in.w.Setups-1
		var base uint64
		if last {
			base = liveHeap()
		} else {
			runtime.GC()
		}
		s, d, err := setUp(in, f, rec)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d)
		if last {
			return s, setups, int64(liveHeap()) - int64(base), nil
		}
		if err := s.stop(); err != nil {
			return nil, nil, 0, err
		}
	}
	return nil, nil, 0, fmt.Errorf("workload %s sets up no stack", in.w.Name)
}

// spanMetrics derives the span-based per-layer metrics.
func spanMetrics(rep *report, spans []span, w workload) {
	kids := children(spans)
	var httpSelf, indexKNN, indexRange, indexInsert, accept, appendUS, merge, execUS []time.Duration
	serverSelf := map[opKind][]time.Duration{}
	var respBytes, respN, straggle, straggleN float64
	for i := range spans {
		s := &spans[i]
		d := time.Duration(s.dur())
		switch s.kind {
		case spanHandler:
			if s.parent < 0 {
				continue
			}
			httpSelf = append(httpSelf, time.Duration(spans[s.parent].dur())-d)
			serverSelf[s.reqOp] = append(serverSelf[s.reqOp], time.Duration(selfTime(spans, int32(i), kids[i])))
			respBytes += float64(s.n)
			respN++
			if s.reqOp == opBatch {
				execUS = append(execUS, d/time.Duration(w.BatchSize))
			}
		case spanIndex:
			switch s.op {
			case spanKNN:
				indexKNN = append(indexKNN, d)
			case spanRange:
				indexRange = append(indexRange, d)
			case spanInsert:
				indexInsert = append(indexInsert, d)
			case spanKNNAccept, spanRangeAccept:
				accept = append(accept, d)
			}
			if len(kids[i]) > 0 {
				straggle += stragglerRatio(spans, kids[i])
				straggleN++
				var slowest int64
				for _, k := range kids[i] {
					slowest = max(slowest, spans[k].dur())
				}
				merge = append(merge, time.Duration(s.dur()-slowest))
			}
		case spanJournal:
			appendUS = append(appendUS, d)
		}
	}
	us := func(ds []time.Duration, p float64) float64 { return micros(percentile(ds, p)) }
	rep.set("http.self_us", unitUS, us(httpSelf, 0.5))
	rep.set("server.self_us.knn", unitUS, us(serverSelf[opKNN], 0.5))
	rep.set("server.self_us.range", unitUS, us(serverSelf[opRange], 0.5))
	rep.set("server.resp_bytes", unitBytes, ratio(respBytes, respN))
	rep.set("shard.straggler_ratio", unitRatio, ratio(straggle, straggleN))
	rep.set("index.knn_us", unitUS, us(indexKNN, 0.5))
	rep.set("index.range_us", unitUS, us(indexRange, 0.5))
	// Timings of layers only some workloads reach: report lines only.
	optional := []struct {
		name string
		ds   []time.Duration
		p    float64
	}{
		{"server.self_us.batch", serverSelf[opBatch], 0.5},
		{"server.write_self_us", serverSelf[opInsert], 0.5},
		{"exec.us_per_query", execUS, 0.5},
		{"index.accept_us", accept, 0.5},
		{"index.insert_us", indexInsert, 0.5},
		{"shard.merge_self_us", merge, 0.5},
		{"persist.append_us.p50", appendUS, 0.5},
		{"persist.append_us.p90", appendUS, 0.9},
	}
	for _, o := range optional {
		if len(o.ds) > 0 {
			rep.set(o.name, unitUS, us(o.ds, o.p))
		}
	}
}

// traceSlices is how many off/on slice pairs a traced closed loop has.
const traceSlices = 5

// closedSide sums the closed-loop slices run with recording off, or on.
type closedSide struct {
	queries    int64
	elapsed    time.Duration
	allocBytes uint64
	gcs        uint32
}

func (s closedSide) qps() float64 { return float64(s.queries) / s.elapsed.Seconds() }

func setRec(rec *recorder, on bool) {
	if rec != nil {
		rec.on.Store(on)
	}
}

func walStats(st *stack) persist.WALStats {
	if st.wal == nil {
		return persist.WALStats{}
	}
	return st.wal.Stats()
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
