package epoch_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"metricindex/internal/cache"
	"metricindex/internal/core"
	"metricindex/internal/epoch"
	"metricindex/internal/obs"
	"metricindex/internal/plan"
	"metricindex/internal/table"
	"metricindex/internal/testutil"
)

// newShapeLive builds a LAESA-backed Live over an attributed vector
// dataset (attrs attached before NewLive, so the planner's estimator is
// seeded from them).
func newShapeLive(t *testing.T, n int, cached bool) (*epoch.Live, *core.Dataset) {
	t.Helper()
	ds := testutil.VectorDataset(n, 4, 100, core.L2{}, 5)
	testutil.AttachTestAttrs(t, ds, 9)
	idx, err := table.NewLAESA(ds, testutil.SpreadPivots(ds, 4))
	if err != nil {
		t.Fatal(err)
	}
	l := epoch.NewLive(ds, idx)
	if cached {
		l.SetCache(cache.New(cache.Options{}))
	}
	return l, ds
}

// bruteAnswer is the specification of q over ds: the linear scan,
// restricted to the predicate's matches when q is filtered.
func bruteAnswer(ds *core.Dataset, q epoch.Query) epoch.Answer {
	match := func(id int) bool { return q.Filter == nil || q.Filter.Eval(ds.Attrs(id)) }
	var a epoch.Answer
	if q.Kind == epoch.KindKNN {
		h := core.NewKNNHeap(q.K)
		for _, nb := range core.BruteForceKNN(ds, q.Object, ds.Count()) {
			if match(nb.ID) {
				h.Push(nb.ID, nb.Dist)
			}
		}
		a.Neighbors = h.Result()
		return a
	}
	for _, id := range core.BruteForceRange(ds, q.Object, q.R) {
		if match(id) {
			a.IDs = append(a.IDs, id)
		}
	}
	return a
}

func sameAnswer(got, want epoch.Answer) bool {
	if len(got.IDs)+len(want.IDs) > 0 && !reflect.DeepEqual(got.IDs, want.IDs) {
		return false
	}
	if len(got.Neighbors)+len(want.Neighbors) > 0 && !reflect.DeepEqual(got.Neighbors, want.Neighbors) {
		return false
	}
	return true
}

func spanNames(tr *obs.Trace) []string {
	var names []string
	for _, s := range tr.Spans() {
		names = append(names, s.Name)
	}
	sort.Strings(names)
	return names
}

// TestQueryShapes runs every query shape through the one query path —
// {range, kNN} × {no predicate, predicate} × {no trace, trace} ×
// {no cache, cache} — and checks each answer against the brute-force
// specification, the epoch it reports, the plan strategy (zero exactly
// when no plan ran: unfiltered, or served from the cache) and the span
// timeline. Each shape is asked three times: cold, repeated at the same
// epoch (a hit when cached), and after a committed write (a miss again,
// answering over the new dataset version).
func TestQueryShapes(t *testing.T) {
	pred, err := plan.Parse(`tags = "hot"`)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []epoch.Kind{epoch.KindRange, epoch.KindKNN} {
		for _, filtered := range []bool{false, true} {
			for _, traced := range []bool{false, true} {
				for _, cached := range []bool{false, true} {
					name := fmt.Sprintf("kind=%d/filter=%v/trace=%v/cache=%v", kind, filtered, traced, cached)
					t.Run(name, func(t *testing.T) {
						l, ds := newShapeLive(t, 1200, cached)
						q := epoch.Query{Object: testutil.RandomQuery(ds, 3), Kind: kind, K: 7}
						q.R = testutil.Radii(ds, q.Object)[2]
						if filtered {
							q.Filter = pred
						}
						ask := func(step string, wantHit bool) {
							t.Helper()
							if traced {
								q.Trace = obs.NewTraceAt(time.Now())
							}
							var hits0 int64
							if st, ok := l.CacheStats(); ok {
								hits0 = st.Hits
							}
							ans, err := l.Search(q)
							if err != nil {
								t.Fatalf("%s: %v", step, err)
							}
							if ans.Epoch != l.Epoch() {
								t.Fatalf("%s: answer epoch %d, live epoch %d", step, ans.Epoch, l.Epoch())
							}
							var want epoch.Answer
							l.View(func(ds *core.Dataset, _ core.Index) { want = bruteAnswer(ds, q) })
							if !sameAnswer(ans, want) {
								t.Fatalf("%s: answer differs from brute force:\n got %+v\nwant %+v", step, ans, want)
							}
							hit := false
							if st, ok := l.CacheStats(); ok {
								hit = st.Hits > hits0
							}
							if hit != wantHit {
								t.Fatalf("%s: cache hit = %v, want %v", step, hit, wantHit)
							}
							if planned := filtered && !hit; planned != (ans.Strategy != 0) {
								t.Fatalf("%s: strategy %v (filtered=%v, hit=%v)", step, ans.Strategy, filtered, hit)
							}
							if !traced {
								return
							}
							var names []string
							if cached {
								names = append(names, "cache_probe")
							}
							if !hit {
								names = append(names, "read_wait", "read_section")
								if filtered {
									names = append(names, "plan")
								}
							}
							sort.Strings(names)
							if got := spanNames(q.Trace); !reflect.DeepEqual(got, names) {
								t.Fatalf("%s: spans %v, want %v", step, got, names)
							}
						}
						ask("cold", false)
						ask("repeat", cached)
						o := testutil.RandomQuery(ds, 4)
						if _, err := l.AddAttrs(o, core.Attrs{"tags": core.TagsValue("hot")}); err != nil {
							t.Fatal(err)
						}
						ask("after write", false)
					})
				}
			}
		}
	}
}

// TestSearchClampsHugeK: a k far beyond the live count must answer with
// every live object instead of sizing a heap for k — filtered or not,
// cached or not.
func TestSearchClampsHugeK(t *testing.T) {
	pred, err := plan.Parse(`tags = "hot"`)
	if err != nil {
		t.Fatal(err)
	}
	for _, cached := range []bool{false, true} {
		l, ds := newShapeLive(t, 300, cached)
		for _, p := range []*plan.Predicate{nil, pred} {
			q := epoch.Query{Object: testutil.RandomQuery(ds, 1), Kind: epoch.KindKNN, K: 4000000000000, Filter: p}
			ans, err := l.Search(q)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteAnswer(ds, epoch.Query{Object: q.Object, Kind: epoch.KindKNN, K: ds.Count(), Filter: p})
			if !sameAnswer(ans, want) {
				t.Fatalf("cache=%v filter=%v: got %d neighbors, want %d", cached, p != nil, len(ans.Neighbors), len(want.Neighbors))
			}
		}
		nns, err := l.KNNSearch(testutil.RandomQuery(ds, 2), 4000000000000)
		if err != nil || len(nns) != ds.Count() {
			t.Fatalf("KNNSearch(huge k): %d neighbors, err %v; want %d", len(nns), err, ds.Count())
		}
	}
}

// liveSearchKNNAllocs pins the allocations of one untraced, uncached
// LAESA kNN query through Live on this fixture (measured 4, all of them
// the index's own): the Query value, the nil trace and the absent cache
// must add none.
const liveSearchKNNAllocs = 4

// liveSearchProbeAllocs pins the same query probe-filtered (measured 5:
// the index's 4 plus the accept closure). Evaluating the predicate on
// every candidate's attribute row must add nothing per candidate.
const liveSearchProbeAllocs = 5

func TestLiveSearchAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	ds := testutil.VectorDataset(500, 4, 100, core.L2{}, 7)
	testutil.AttachTestAttrs(t, ds, 9)
	idx, err := table.NewLAESA(ds, []int{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	l := epoch.NewLive(ds, idx)
	q := epoch.Query{Object: ds.Objects()[42], Kind: epoch.KindKNN, K: 10}
	raw := testing.AllocsPerRun(200, func() {
		if _, err := idx.KNNSearch(q.Object, q.K); err != nil {
			panic(err)
		}
	})
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := l.Search(q); err != nil {
			panic(err)
		}
	})
	if allocs > liveSearchKNNAllocs || allocs > raw {
		t.Fatalf("Live.Search kNN allocated %.1f times per query; the index alone %.1f, budget %d",
			allocs, raw, liveSearchKNNAllocs)
	}

	q.Filter = mustParsePlan(t, `category IN ("rare", "mid")`)
	if a, err := l.Search(q); err != nil || a.Strategy != plan.StrategyProbe {
		t.Fatalf("filtered search ran %v (err %v); the witness needs the probe strategy", a.Strategy, err)
	}
	probe := testing.AllocsPerRun(200, func() {
		if _, err := l.Search(q); err != nil {
			panic(err)
		}
	})
	if probe > liveSearchProbeAllocs {
		t.Fatalf("probe-filtered Live.Search kNN allocated %.1f times per query, budget %d",
			probe, liveSearchProbeAllocs)
	}
}
