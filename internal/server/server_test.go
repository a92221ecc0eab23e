package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"metricindex/internal/cache"
	"metricindex/internal/core"
	"metricindex/internal/epoch"
	"metricindex/internal/obs"
	"metricindex/internal/pivot"
	"metricindex/internal/table"
	"metricindex/internal/testutil"
)

// laesaBuilder is the rebuild path every test server uses.
func laesaBuilder(ds *core.Dataset) (core.Index, error) {
	pv, err := pivot.HFI(ds, 4, pivot.Options{Seed: 3})
	if err != nil {
		return nil, err
	}
	return table.NewLAESA(ds, pv)
}

// newTestServer builds a LAESA-backed server over a fresh vector dataset.
func newTestServer(t *testing.T, n int, opts Options) (*Server, *epoch.Live, *httptest.Server) {
	t.Helper()
	ds := testutil.VectorDataset(n, 4, 100, core.L2{}, 9)
	idx, err := laesaBuilder(ds)
	if err != nil {
		t.Fatal(err)
	}
	live := epoch.NewLive(ds, idx)
	if opts.Builder == nil {
		opts.Builder = laesaBuilder
	}
	srv, err := New(live, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, live, ts
}

// post sends a JSON body and decodes the JSON response.
func post(t *testing.T, url string, body, into any) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if into != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, into); err != nil {
			t.Fatalf("POST %s: bad response %q: %v", url, data, err)
		}
	}
	return resp.StatusCode
}

func get(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if into != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s: bad response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestAnswersMatchDirectCalls is the server's core contract: every
// endpoint returns exactly what the same call on the wrapped index
// returns — ids, order, distances.
func TestAnswersMatchDirectCalls(t *testing.T) {
	_, live, ts := newTestServer(t, 400, Options{})
	var ds *core.Dataset
	live.View(func(d *core.Dataset, _ core.Index) { ds = d })

	for qs := int64(0); qs < 5; qs++ {
		q := testutil.RandomQuery(ds, qs)
		const r = 30.0
		const k = 7

		var rr RangeResponse
		if code := post(t, ts.URL+"/v1/range", map[string]any{"query": q, "radius": r}, &rr); code != 200 {
			t.Fatalf("range: status %d", code)
		}
		wantIDs, err := live.RangeSearch(q, r)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rr.IDs, normIDs(wantIDs)) {
			t.Fatalf("range answer differs:\n got %v\nwant %v", rr.IDs, wantIDs)
		}

		var kr KNNResponse
		if code := post(t, ts.URL+"/v1/knn", map[string]any{"query": q, "k": k}, &kr); code != 200 {
			t.Fatalf("knn: status %d", code)
		}
		wantNNs, err := live.KNNSearch(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(kr.Neighbors, toWire(wantNNs)) {
			t.Fatalf("knn answer differs:\n got %v\nwant %v", kr.Neighbors, wantNNs)
		}
	}
}

// normIDs matches the server's empty-answer representation.
func normIDs(ids []int) []int {
	if ids == nil {
		return []int{}
	}
	return ids
}

// TestBatchEndpoint checks /v1/batch equals per-query direct calls and
// reports SLO stats.
func TestBatchEndpoint(t *testing.T) {
	_, live, ts := newTestServer(t, 400, Options{Workers: 4})
	var ds *core.Dataset
	live.View(func(d *core.Dataset, _ core.Index) { ds = d })
	queries := make([]core.Object, 16)
	for i := range queries {
		queries[i] = testutil.RandomQuery(ds, int64(50+i))
	}

	var br BatchResponse
	if code := post(t, ts.URL+"/v1/batch", map[string]any{"type": "knn", "queries": queries, "k": 5}, &br); code != 200 {
		t.Fatalf("batch: status %d", code)
	}
	if len(br.Neighbors) != len(queries) {
		t.Fatalf("batch dropped queries: %d answers for %d queries", len(br.Neighbors), len(queries))
	}
	for i, q := range queries {
		want, err := live.KNNSearch(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(br.Neighbors[i], toWire(want)) {
			t.Fatalf("batch query %d differs:\n got %v\nwant %v", i, br.Neighbors[i], want)
		}
	}
	st := br.Stats
	if st.Queries != len(queries) || st.CompDists <= 0 || st.P50Micros <= 0 ||
		st.P95Micros < st.P50Micros || st.P99Micros < st.P95Micros {
		t.Fatalf("batch stats malformed: %+v", st)
	}

	var rr BatchResponse
	if code := post(t, ts.URL+"/v1/batch", map[string]any{"type": "range", "queries": queries, "radius": 25.0}, &rr); code != 200 {
		t.Fatalf("batch range: status %d", code)
	}
	for i, q := range queries {
		want, err := live.RangeSearch(q, 25)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rr.IDs[i], normIDs(want)) {
			t.Fatalf("batch range query %d differs:\n got %v\nwant %v", i, rr.IDs[i], want)
		}
	}
}

// TestInsertDeleteRoundTrip mutates through the API and checks searches
// observe the changes immediately, with the epoch advancing per commit.
func TestInsertDeleteRoundTrip(t *testing.T) {
	_, live, ts := newTestServer(t, 200, Options{})
	obj := core.Vector{999, 999, 999, 999}

	var ir InsertResponse
	if code := post(t, ts.URL+"/v1/insert", map[string]any{"object": obj}, &ir); code != 200 {
		t.Fatalf("insert: status %d", code)
	}
	var rr RangeResponse
	if code := post(t, ts.URL+"/v1/range", map[string]any{"query": obj, "radius": 0.0}, &rr); code != 200 {
		t.Fatalf("range: status %d", code)
	}
	if !reflect.DeepEqual(rr.IDs, []int{ir.ID}) {
		t.Fatalf("inserted object not served: got %v, want [%d]", rr.IDs, ir.ID)
	}
	if rr.Epoch != ir.Epoch {
		t.Fatalf("epoch moved without a write: %d then %d", ir.Epoch, rr.Epoch)
	}

	var dr DeleteResponse
	if code := post(t, ts.URL+"/v1/delete", map[string]int{"id": ir.ID}, &dr); code != 200 {
		t.Fatalf("delete: status %d", code)
	}
	if dr.Epoch != ir.Epoch+1 {
		t.Fatalf("delete epoch %d, want %d", dr.Epoch, ir.Epoch+1)
	}
	if code := post(t, ts.URL+"/v1/range", map[string]any{"query": obj, "radius": 0.0}, &rr); code != 200 || len(rr.IDs) != 0 {
		t.Fatalf("deleted object still served: status %d ids %v", code, rr.IDs)
	}
	// Deleting twice is a client error, not a server fault.
	if code := post(t, ts.URL+"/v1/delete", map[string]int{"id": ir.ID}, nil); code != http.StatusBadRequest {
		t.Fatalf("double delete: status %d, want 400", code)
	}
	live.View(func(ds *core.Dataset, idx core.Index) {
		q := testutil.RandomQuery(ds, 3)
		testutil.CheckRange(t, idx, ds, q, 20)
	})
}

// TestSwapUnderHTTPLoad swaps the index while HTTP queries hammer the
// server: every request must succeed (zero dropped), and answers after
// the swap stay exact.
func TestSwapUnderHTTPLoad(t *testing.T) {
	_, live, ts := newTestServer(t, 400, Options{})
	var ds *core.Dataset
	live.View(func(d *core.Dataset, _ core.Index) { ds = d })
	q := testutil.RandomQuery(ds, 1)

	var (
		wg    sync.WaitGroup
		stop  atomic.Bool
		bad   atomic.Int64
		total atomic.Int64
	)
	body, err := json.Marshal(map[string]any{"query": q, "k": 5})
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				resp, err := http.Post(ts.URL+"/v1/knn", "application/json", bytes.NewReader(body))
				if err != nil {
					bad.Add(1)
					return
				}
				var kr KNNResponse
				decErr := json.NewDecoder(resp.Body).Decode(&kr)
				resp.Body.Close()
				if resp.StatusCode != 200 || decErr != nil || len(kr.Neighbors) != 5 {
					bad.Add(1)
					return
				}
				total.Add(1)
			}
		}()
	}
	for s := 0; s < 2; s++ {
		var sr SwapResponse
		if code := post(t, ts.URL+"/v1/swap", map[string]any{}, &sr); code != 200 {
			t.Errorf("swap %d: status %d", s, code)
		}
	}
	stop.Store(true)
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d of %d queries failed during the swaps", bad.Load(), total.Load())
	}
	if total.Load() == 0 {
		t.Fatal("no queries completed")
	}
	live.View(func(d *core.Dataset, idx core.Index) {
		testutil.CheckKNN(t, idx, d, q, 5)
	})
}

// TestAdmissionQueueRejects fills every in-flight slot and the whole
// queue, then checks the next request is shed with ErrOverloaded.
func TestAdmissionQueueRejects(t *testing.T) {
	adm := newAdmission(2, 1, obs.NewRegistry())
	ctx := context.Background()
	if err := adm.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := adm.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	// Both slots busy: one waiter is allowed...
	waited := make(chan error, 1)
	go func() { waited <- adm.acquire(ctx) }()
	for adm.waiting.Value() == 0 {
		time.Sleep(time.Millisecond)
	}
	// ...the next is rejected immediately.
	if err := adm.acquire(ctx); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-queue acquire: got %v, want ErrOverloaded", err)
	}
	adm.release()
	if err := <-waited; err != nil {
		t.Fatalf("queued acquire after release: %v", err)
	}
	s := adm.stats()
	if s.Rejected != 1 || s.Admitted != 3 || s.InFlight != 2 {
		t.Fatalf("admission stats: %+v", s)
	}
	// A queued client that gives up gets its context error.
	cctx, cancel := context.WithCancel(ctx)
	gone := make(chan error, 1)
	go func() { gone <- adm.acquire(cctx) }()
	for adm.waiting.Value() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-gone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: got %v", err)
	}
}

// TestAdmissionOverHTTP checks the 429 path end to end with a server of
// capacity one and no queue.
func TestAdmissionOverHTTP(t *testing.T) {
	srv, live, ts := newTestServer(t, 200, Options{MaxInFlight: 1, MaxQueue: 1})
	var ds *core.Dataset
	live.View(func(d *core.Dataset, _ core.Index) { ds = d })
	q := testutil.RandomQuery(ds, 1)

	// Occupy the only slot and the only queue seat out-of-band, then any
	// query must shed with 429.
	if err := srv.adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() { blocked <- srv.adm.acquire(context.Background()) }()
	for srv.adm.waiting.Value() == 0 {
		time.Sleep(time.Millisecond)
	}
	if code := post(t, ts.URL+"/v1/knn", map[string]any{"query": q, "k": 3}, nil); code != http.StatusTooManyRequests {
		t.Fatalf("saturated server: status %d, want 429", code)
	}
	// Stats and health stay reachable under overload — they are exempt
	// from admission so operators can see what is happening.
	if code := get(t, ts.URL+"/v1/stats", nil); code != 200 {
		t.Fatalf("stats under overload: status %d", code)
	}
	srv.adm.release()
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	srv.adm.release()
	if code := post(t, ts.URL+"/v1/knn", map[string]any{"query": q, "k": 3}, nil); code != 200 {
		t.Fatalf("drained server: status %d, want 200", code)
	}
}

// TestStatsEndpoint drives traffic from two named clients and checks the
// per-endpoint and per-client accounting.
func TestStatsEndpoint(t *testing.T) {
	_, live, ts := newTestServer(t, 300, Options{})
	var ds *core.Dataset
	live.View(func(d *core.Dataset, _ core.Index) { ds = d })

	client := &http.Client{}
	for i := 0; i < 6; i++ {
		q, _ := json.Marshal(testutil.RandomQuery(ds, int64(i)))
		body, _ := json.Marshal(map[string]any{"query": json.RawMessage(q), "k": 4})
		req, _ := http.NewRequest("POST", ts.URL+"/v1/knn", bytes.NewReader(body))
		req.Header.Set("X-Client", fmt.Sprintf("tenant-%d", i%2))
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	var st StatsResponse
	if code := get(t, ts.URL+"/v1/stats", &st); code != 200 {
		t.Fatalf("stats: status %d", code)
	}
	ep := st.Endpoints["knn"]
	if ep.Count != 6 || ep.Errors != 0 || ep.CompDists <= 0 || ep.P50Micros <= 0 || ep.QPS <= 0 {
		t.Fatalf("knn endpoint stats: %+v", ep)
	}
	if ep.P95Micros < ep.P50Micros || ep.P99Micros < ep.P95Micros {
		t.Fatalf("percentiles out of order: %+v", ep)
	}
	for _, tenant := range []string{"tenant-0", "tenant-1"} {
		if c := st.Clients[tenant]; c.Count != 3 {
			t.Fatalf("client %s count = %d, want 3 (%+v)", tenant, c.Count, st.Clients)
		}
	}
	if st.Index.Name != "LAESA" || st.Index.Count != 300 {
		t.Fatalf("index stats: %+v", st.Index)
	}
	if st.Admission.Admitted != 6 || st.Admission.Rejected != 0 {
		t.Fatalf("admission stats: %+v", st.Admission)
	}
}

// TestBadRequests maps malformed inputs to 400s, never 500s.
func TestBadRequests(t *testing.T) {
	_, _, ts := newTestServer(t, 100, Options{})
	cases := []struct {
		path string
		body string
	}{
		{"/v1/range", `{"query": "not-a-vector", "radius": 1}`},
		{"/v1/range", `{"query": [1,2,3,4], "radius": -1}`},
		{"/v1/knn", `{"query": [1,2,3,4], "k": 0}`},
		{"/v1/knn", `{"bogus": true}`},
		{"/v1/batch", `{"type": "nope", "queries": [[1,2,3,4]]}`},
		{"/v1/batch", `{"type": "knn", "queries": [], "k": 3}`},
		{"/v1/insert", `{"object": 17}`},
		{"/v1/delete", `{"id": 99999}`},
		{"/v1/range", `not json`},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+c.path, "application/json", bytes.NewReader([]byte(c.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s %s: status %d, want 400", c.path, c.body, resp.StatusCode)
		}
	}
	if code := get(t, ts.URL+"/healthz", nil); code != 200 {
		t.Fatalf("healthz: %d", code)
	}
}

// TestWordDatasetOverHTTP checks the codec end to end on a string-object
// dataset (edit distance).
func TestWordDatasetOverHTTP(t *testing.T) {
	ds := testutil.WordDataset(200, 5)
	idx, err := laesaBuilder(ds)
	if err != nil {
		t.Fatal(err)
	}
	live := epoch.NewLive(ds, idx)
	srv, err := New(live, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	q := testutil.RandomQuery(ds, 2)
	var rr RangeResponse
	if code := post(t, ts.URL+"/v1/range", map[string]any{"query": q, "radius": 2.0}, &rr); code != 200 {
		t.Fatalf("word range: status %d", code)
	}
	want, err := live.RangeSearch(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rr.IDs, normIDs(want)) {
		t.Fatalf("word answers differ: got %v want %v", rr.IDs, want)
	}
	var ir InsertResponse
	if code := post(t, ts.URL+"/v1/insert", map[string]string{"object": "zzzzzz"}, &ir); code != 200 {
		t.Fatalf("word insert: status %d", code)
	}
	if code := post(t, ts.URL+"/v1/range", map[string]any{"query": "zzzzzz", "radius": 0.0}, &rr); code != 200 || !reflect.DeepEqual(rr.IDs, []int{ir.ID}) {
		t.Fatalf("inserted word not served: status %d ids %v", code, rr.IDs)
	}
}

// TestCacheOverHTTP enables the answer cache through Options.Cache and
// proves the full serving loop: repeated queries hit (visible in
// /v1/stats), hits equal direct calls, batches are served by the
// engine's pre-dispatch probe, and an insert invalidates everything.
func TestCacheOverHTTP(t *testing.T) {
	_, live, ts := newTestServer(t, 300, Options{Cache: &cache.Options{MaxBytes: 8 << 20}, Workers: 4})
	var ds *core.Dataset
	live.View(func(d *core.Dataset, _ core.Index) { ds = d })
	q := testutil.RandomQuery(ds, 21)
	raw, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}

	// Two identical kNN requests: the second must be a hit and byte-equal.
	var first, second KNNResponse
	if code := post(t, ts.URL+"/v1/knn", KNNRequest{Query: raw, K: 5}, &first); code != http.StatusOK {
		t.Fatalf("knn: status %d", code)
	}
	if code := post(t, ts.URL+"/v1/knn", KNNRequest{Query: raw, K: 5}, &second); code != http.StatusOK {
		t.Fatalf("knn: status %d", code)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached answer differs: %+v vs %+v", first, second)
	}
	var direct []core.Neighbor
	live.View(func(_ *core.Dataset, idx core.Index) { direct, _ = idx.KNNSearch(q, 5) })
	for i, nb := range direct {
		if second.Neighbors[i].ID != nb.ID || second.Neighbors[i].Dist != nb.Dist {
			t.Fatalf("neighbor %d: served %+v, direct %+v", i, second.Neighbors[i], nb)
		}
	}

	// A repeated batch is served from cache before dispatch.
	raws := []json.RawMessage{raw, raw}
	var br BatchResponse
	if code := post(t, ts.URL+"/v1/batch", BatchRequest{Type: "knn", Queries: raws, K: 5}, &br); code != http.StatusOK {
		t.Fatalf("batch: status %d", code)
	}
	if br.Stats.CacheHits != len(raws) {
		t.Fatalf("batch cache_hits = %d, want %d", br.Stats.CacheHits, len(raws))
	}

	var st StatsResponse
	if code := get(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if !st.Cache.Enabled || st.Cache.Hits == 0 || st.Cache.Entries == 0 {
		t.Fatalf("cache stats malformed: %+v", st.Cache)
	}
	if st.Cache.HitRate <= 0 || st.Cache.HitRate > 1 {
		t.Fatalf("hit rate %v out of range", st.Cache.HitRate)
	}

	// An insert bumps the epoch: the same request recomputes at the new
	// epoch and reports it.
	var ir InsertResponse
	if code := post(t, ts.URL+"/v1/insert", InsertRequest{Object: raw}, &ir); code != http.StatusOK {
		t.Fatalf("insert: status %d", code)
	}
	var third KNNResponse
	if code := post(t, ts.URL+"/v1/knn", KNNRequest{Query: raw, K: 5}, &third); code != http.StatusOK {
		t.Fatalf("knn: status %d", code)
	}
	if third.Epoch != ir.Epoch {
		t.Fatalf("post-insert answer at epoch %d, insert committed at %d", third.Epoch, ir.Epoch)
	}
	if third.Neighbors[0].ID != ir.ID || third.Neighbors[0].Dist != 0 {
		t.Fatalf("post-insert nearest = %+v, want the inserted object %d at 0", third.Neighbors[0], ir.ID)
	}

	// Stats without a cache stay zero-valued.
	_, _, plain := newTestServer(t, 100, Options{})
	var st2 StatsResponse
	if code := get(t, plain.URL+"/v1/stats", &st2); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if st2.Cache.Enabled || st2.Cache.Hits != 0 {
		t.Fatalf("cacheless server reported cache stats: %+v", st2.Cache)
	}
}

// TestHugeKOverHTTP: a k far beyond the dataset size is a valid request
// answered with every live object — on the kNN endpoint and through a
// batch — never an attempt to size a heap for k.
func TestHugeKOverHTTP(t *testing.T) {
	const n = 200
	_, live, ts := newTestServer(t, n, Options{})
	q := []float64{10, 20, 30, 40}
	var kr KNNResponse
	if code := post(t, ts.URL+"/v1/knn", map[string]any{"query": q, "k": 4000000000000}, &kr); code != http.StatusOK {
		t.Fatalf("knn with huge k: status %d", code)
	}
	if len(kr.Neighbors) != n {
		t.Fatalf("knn with huge k: %d neighbors, want %d", len(kr.Neighbors), n)
	}
	direct, err := live.KNNSearch(core.Vector(q), n)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(kr.Neighbors, toWire(direct)) {
		t.Fatal("huge-k answer differs from the k = n answer")
	}
	var br BatchResponse
	body := map[string]any{"type": "knn", "queries": [][]float64{q}, "k": 4000000000000}
	if code := post(t, ts.URL+"/v1/batch", body, &br); code != http.StatusOK {
		t.Fatalf("batch with huge k: status %d", code)
	}
	if len(br.Neighbors) != 1 || len(br.Neighbors[0]) != n {
		t.Fatalf("batch with huge k: %d answers", len(br.Neighbors))
	}
}
