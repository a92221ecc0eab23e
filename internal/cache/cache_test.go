package cache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"metricindex/internal/core"
)

// rangeFill and knnFill are the per-kind fill shapes the tests write
// inline; doRange, doKNN and getRange adapt them to the Key/Answer API.
type (
	rangeFill func() ([]int, uint64, error)
	knnFill   func() ([]core.Neighbor, uint64, error)
)

func doRange(c *Cache, q core.Object, r float64, epoch uint64, fetch rangeFill) ([]int, uint64, error) {
	a, ep, err := c.Do(RangeKey(q, r, ""), epoch, func() (Answer, uint64, error) {
		ids, ep, err := fetch()
		return Answer{IDs: ids}, ep, err
	})
	return a.IDs, ep, err
}

func doKNN(c *Cache, q core.Object, k int, epoch uint64, fetch knnFill) ([]core.Neighbor, uint64, error) {
	a, ep, err := c.Do(KNNKey(q, k, ""), epoch, func() (Answer, uint64, error) {
		nns, ep, err := fetch()
		return Answer{Neighbors: nns}, ep, err
	})
	return a.Neighbors, ep, err
}

func getRange(c *Cache, q core.Object, r float64, epoch uint64) ([]int, bool) {
	a, ok := c.Get(RangeKey(q, r, ""), epoch)
	return a.IDs, ok
}

// fillRange adapts a canned answer to the rangeFill shape, counting how
// often it actually computes.
func fillRange(calls *atomic.Int64, ids []int, epoch uint64) rangeFill {
	return func() ([]int, uint64, error) {
		calls.Add(1)
		return ids, epoch, nil
	}
}

func TestRangeHitMissAndEpochInvalidation(t *testing.T) {
	c := New(Options{})
	q := core.Vector{1, 2, 3}
	var calls atomic.Int64

	ids, ep, err := doRange(c, q, 5, 7, fillRange(&calls, []int{1, 2, 3}, 7))
	if err != nil || ep != 7 || len(ids) != 3 {
		t.Fatalf("cold fill: ids=%v ep=%d err=%v", ids, ep, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("cold fill computed %d times", calls.Load())
	}

	// Same query, same epoch: served from cache, no compute.
	ids2, ep2, err := doRange(c, q, 5, 7, fillRange(&calls, nil, 0))
	if err != nil || ep2 != 7 {
		t.Fatalf("hit: ep=%d err=%v", ep2, err)
	}
	if calls.Load() != 1 {
		t.Fatal("hit recomputed")
	}
	if fmt.Sprint(ids2) != fmt.Sprint(ids) {
		t.Fatalf("hit answer %v != fill answer %v", ids2, ids)
	}
	// Returned slices are private copies.
	ids2[0] = 999
	ids3, _, _ := doRange(c, q, 5, 7, fillRange(&calls, nil, 0))
	if ids3[0] == 999 {
		t.Fatal("cached answer aliased a caller's slice")
	}

	// Epoch bump: the entry self-invalidates, the fill replaces it.
	ids4, ep4, err := doRange(c, q, 5, 8, fillRange(&calls, []int{9}, 8))
	if err != nil || ep4 != 8 || len(ids4) != 1 || ids4[0] != 9 {
		t.Fatalf("post-bump fill: ids=%v ep=%d err=%v", ids4, ep4, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("post-bump lookup must miss; computed %d times", calls.Load())
	}
	// The old-epoch answer is gone: a lookup at epoch 7 misses too
	// (replaced in place, not versioned).
	if _, ok := getRange(c, q, 5, 7); ok {
		t.Fatal("pre-bump answer survived the epoch bump")
	}
	if got, ok := getRange(c, q, 5, 8); !ok || len(got) != 1 || got[0] != 9 {
		t.Fatalf("current-epoch answer: got=%v ok=%v", got, ok)
	}

	st := c.Stats()
	if st.Entries != 1 || st.Hits < 2 || st.Misses != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestKNNHitAndParamSeparation(t *testing.T) {
	c := New(Options{})
	q := core.Word("hello")
	var calls atomic.Int64
	fill := func(n int) knnFill {
		return func() ([]core.Neighbor, uint64, error) {
			calls.Add(1)
			nns := make([]core.Neighbor, n)
			for i := range nns {
				nns[i] = core.Neighbor{ID: i, Dist: float64(i)}
			}
			return nns, 3, nil
		}
	}
	if _, _, err := doKNN(c, q, 5, 3, fill(5)); err != nil {
		t.Fatal(err)
	}
	// Different k is a different entry.
	if _, _, err := doKNN(c, q, 10, 3, fill(10)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("k=5 and k=10 must fill separately; computed %d", calls.Load())
	}
	nns, _, err := doKNN(c, q, 5, 3, fill(0))
	if err != nil || len(nns) != 5 {
		t.Fatalf("k=5 hit: %v %v", nns, err)
	}
	if calls.Load() != 2 {
		t.Fatal("k=5 hit recomputed")
	}
	// A range lookup with the same bits must not alias the kNN entry.
	if _, ok := getRange(c, q, float64(5), 3); ok {
		t.Fatal("range lookup hit a kNN entry")
	}
}

func TestDistinctQueriesDistinctEntries(t *testing.T) {
	c := New(Options{})
	var calls atomic.Int64
	for i := 0; i < 50; i++ {
		q := core.Vector{float64(i)}
		if _, _, err := doRange(c, q, 1, 1, fillRange(&calls, []int{i}, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != 50 {
		t.Fatalf("50 distinct queries computed %d times", calls.Load())
	}
	for i := 0; i < 50; i++ {
		ids, ok := getRange(c, core.Vector{float64(i)}, 1, 1)
		if !ok || len(ids) != 1 || ids[0] != i {
			t.Fatalf("query %d: got %v ok=%v", i, ids, ok)
		}
	}
}

func TestByteBudgetEviction(t *testing.T) {
	// One shard so the LRU order is globally observable; budget fits
	// only a handful of entries.
	c := New(Options{MaxBytes: 1024, Shards: 1})
	var calls atomic.Int64
	for i := 0; i < 100; i++ {
		q := core.Vector{float64(i)}
		if _, _, err := doRange(c, q, 1, 1, fillRange(&calls, []int{i}, 1)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Bytes > 1024 {
		t.Fatalf("resident %d bytes exceeds the 1024 budget", st.Bytes)
	}
	if st.Evictions == 0 {
		t.Fatal("100 entries into a 1 KB budget must evict")
	}
	if st.Entries == 0 {
		t.Fatal("eviction emptied the cache entirely")
	}
	// The most recent entry survives, the oldest is gone.
	if _, ok := getRange(c, core.Vector{99}, 1, 1); !ok {
		t.Fatal("most recently filled entry was evicted")
	}
	if _, ok := getRange(c, core.Vector{0}, 1, 1); ok {
		t.Fatal("oldest entry survived a full wrap of the budget")
	}
}

func TestLRUTouchOnHit(t *testing.T) {
	c := New(Options{MaxBytes: 3 * 200, Shards: 1}) // ~3 entries
	var calls atomic.Int64
	put := func(i int) {
		if _, _, err := doRange(c, core.Vector{float64(i)}, 1, 1, fillRange(&calls, []int{i}, 1)); err != nil {
			t.Fatal(err)
		}
	}
	put(0)
	put(1)
	put(2)
	// Touch 0 so 1 becomes the LRU victim of the next insert.
	if _, ok := getRange(c, core.Vector{0}, 1, 1); !ok {
		t.Fatal("entry 0 missing")
	}
	put(3)
	if _, ok := getRange(c, core.Vector{0}, 1, 1); !ok {
		t.Fatal("recently touched entry was evicted before the LRU one")
	}
}

func TestOversizedAnswerNotCached(t *testing.T) {
	c := New(Options{MaxBytes: 256, Shards: 1})
	big := make([]int, 10000)
	var calls atomic.Int64
	if _, _, err := doRange(c, core.Word("q"), 1, 1, fillRange(&calls, big, 1)); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversized answer was cached: %+v", st)
	}
}

func TestFillErrorNotCached(t *testing.T) {
	c := New(Options{})
	boom := errors.New("boom")
	var calls atomic.Int64
	fail := func() ([]int, uint64, error) { calls.Add(1); return nil, 0, boom }
	if _, _, err := doRange(c, core.Word("q"), 1, 1, fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// The error must not be cached: the next attempt computes again.
	if _, _, err := doRange(c, core.Word("q"), 1, 1, fillRange(&calls, []int{1}, 1)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("computed %d times, want 2", calls.Load())
	}
	if ids, ok := getRange(c, core.Word("q"), 1, 1); !ok || len(ids) != 1 {
		t.Fatalf("recovered answer not cached: %v %v", ids, ok)
	}
}

// TestSingleflightCollapse proves concurrent identical misses run the
// fetch once: every waiter blocks until the leader's answer lands, then
// shares it.
func TestSingleflightCollapse(t *testing.T) {
	c := New(Options{})
	q := core.Vector{42}
	var calls atomic.Int64
	entered := make(chan struct{})
	unblock := make(chan struct{})
	slow := func() ([]int, uint64, error) {
		if calls.Add(1) == 1 {
			close(entered)
		}
		<-unblock
		return []int{7}, 5, nil
	}

	const waiters = 7
	var wg sync.WaitGroup
	results := make([][]int, waiters)
	errs := make([]error, waiters)
	wg.Add(1)
	go func() { // the leader
		defer wg.Done()
		_, _, _ = doRange(c, q, 1, 5, slow)
	}()
	<-entered // the leader is inside the fetch and blocked on unblock
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, errs[i] = doRange(c, q, 1, 5, slow)
		}(i)
	}
	// Give the waiters time to park on the flight; the leader cannot
	// publish until unblock closes, so none of them can compute.
	time.Sleep(50 * time.Millisecond)
	close(unblock)
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Fatalf("fetch ran %d times for %d concurrent identical misses", n, waiters+1)
	}
	for i := range results {
		if errs[i] != nil || len(results[i]) != 1 || results[i][0] != 7 {
			t.Fatalf("waiter %d: ids=%v err=%v", i, results[i], errs[i])
		}
	}
	st := c.Stats()
	// A waiter that was scheduled before the leader published counts as
	// collapsed; one scheduled after counts as a plain hit. Either way
	// the fetch ran once, and every waiter was served without computing.
	if st.Collapsed+st.Hits != waiters {
		t.Fatalf("collapsed(%d) + hits(%d) != %d waiters", st.Collapsed, st.Hits, waiters)
	}
	if st.Collapsed == 0 {
		t.Fatal("no waiter collapsed onto the in-flight fill")
	}
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
}

// TestSingleflightEpochIsolation: a caller at a newer epoch must not be
// handed a fill running for an older epoch.
func TestSingleflightEpochIsolation(t *testing.T) {
	c := New(Options{})
	q := core.Vector{1}
	oldEntered := make(chan struct{})
	oldUnblock := make(chan struct{})
	go func() {
		_, _, _ = doRange(c, q, 1, 1, func() ([]int, uint64, error) {
			close(oldEntered)
			<-oldUnblock
			return []int{1}, 1, nil
		})
	}()
	<-oldEntered
	// The old-epoch fill is in flight; a lookup at epoch 2 must compute
	// its own answer, not wait.
	done := make(chan struct{})
	var got []int
	var ep uint64
	go func() {
		defer close(done)
		got, ep, _ = doRange(c, q, 1, 2, func() ([]int, uint64, error) {
			return []int{2}, 2, nil
		})
	}()
	<-done // completes while the epoch-1 fill is still blocked
	close(oldUnblock)
	if len(got) != 1 || got[0] != 2 || ep != 2 {
		t.Fatalf("epoch-2 caller got %v@%d", got, ep)
	}
}

// TestConcurrentMixedUse hammers the cache from many goroutines across
// overlapping queries, epochs, and kinds — the -race exercise for the
// shard locking and singleflight lifecycle.
func TestConcurrentMixedUse(t *testing.T) {
	c := New(Options{MaxBytes: 64 << 10, Shards: 4})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				q := core.Vector{float64(i % 17)}
				epoch := uint64(i % 3)
				switch (g + i) % 3 {
				case 0:
					ids, ep, err := doRange(c, q, 2, epoch, func() ([]int, uint64, error) {
						return []int{i % 17}, epoch, nil
					})
					if err != nil || ep != epoch || len(ids) != 1 {
						t.Errorf("range: ids=%v ep=%d err=%v", ids, ep, err)
						return
					}
				case 1:
					nns, ep, err := doKNN(c, q, 3, epoch, func() ([]core.Neighbor, uint64, error) {
						return []core.Neighbor{{ID: i % 17}}, epoch, nil
					})
					if err != nil || ep != epoch || len(nns) != 1 {
						t.Errorf("knn: nns=%v ep=%d err=%v", nns, ep, err)
						return
					}
				default:
					getRange(c, q, 2, epoch)
					c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	// Answers remain keyed correctly after the storm.
	for i := 0; i < 17; i++ {
		q := core.Vector{float64(i)}
		for ep := uint64(0); ep < 3; ep++ {
			if ids, ok := getRange(c, q, 2, ep); ok && ids[0] != i {
				t.Fatalf("query %d@%d served %v", i, ep, ids)
			}
		}
	}
}

func TestWordAndIntVectorKeys(t *testing.T) {
	c := New(Options{})
	var calls atomic.Int64
	if _, _, err := doRange(c, core.IntVector{1, 2}, 1, 1, fillRange(&calls, []int{1}, 1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := getRange(c, core.IntVector{1, 2}, 1, 1); !ok {
		t.Fatal("IntVector key missed")
	}
	if _, ok := getRange(c, core.IntVector{1, 3}, 1, 1); ok {
		t.Fatal("distinct IntVector hit")
	}
	if _, ok := getRange(c, core.Vector{1, 2}, 1, 1); ok {
		t.Fatal("Vector hit an IntVector entry")
	}
}

// TestFillPanicReleasesFlight: a panicking fetch must wake waiters with
// an error (not leave them blocked forever), cache nothing, keep the
// flight table clean, and still propagate the panic to the leader.
func TestFillPanicReleasesFlight(t *testing.T) {
	c := New(Options{})
	q := core.Vector{13}
	entered := make(chan struct{})
	unblock := make(chan struct{})

	leaderDone := make(chan any, 1)
	go func() {
		defer func() { leaderDone <- recover() }()
		_, _, _ = doRange(c, q, 1, 4, func() ([]int, uint64, error) {
			close(entered)
			<-unblock
			panic("index exploded")
		})
	}()
	<-entered

	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := doRange(c, q, 1, 4, func() ([]int, uint64, error) {
			return []int{1}, 4, nil
		})
		waiterDone <- err
	}()
	// Give the waiter a moment to park on the flight, then let the
	// leader panic. (If the waiter instead arrives later it computes
	// normally — either way it must not block forever.)
	time.Sleep(20 * time.Millisecond)
	close(unblock)

	if r := <-leaderDone; r == nil {
		t.Fatal("leader's panic was swallowed")
	}
	select {
	case err := <-waiterDone:
		if err != nil && !errors.Is(err, errFillPanicked) {
			t.Fatalf("waiter error = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still blocked after the leader panicked")
	}

	// The flight is gone and nothing was cached: the next call computes.
	var calls atomic.Int64
	ids, ep, err := doRange(c, q, 1, 4, fillRange(&calls, []int{9}, 4))
	if err != nil || calls.Load() != 1 || len(ids) != 1 || ids[0] != 9 || ep != 4 {
		t.Fatalf("post-panic fill: ids=%v ep=%d err=%v calls=%d", ids, ep, err, calls.Load())
	}
}

// TestFilteredAnswerHits: a filtered answer is stored with its filter,
// so the identical filtered query hits, while the unfiltered query and
// a different predicate over the same (q, r) never see it.
func TestFilteredAnswerHits(t *testing.T) {
	c := New(Options{})
	q := core.Vector{4, 2}
	k := RangeKey(q, 3, `tags = "hot"`)
	var calls atomic.Int64
	fill := func() (Answer, uint64, error) {
		calls.Add(1)
		return Answer{IDs: []int{1, 4}}, 6, nil
	}
	for i := 0; i < 2; i++ {
		a, ep, err := c.Do(k, 6, fill)
		if err != nil || ep != 6 || len(a.IDs) != 2 {
			t.Fatalf("call %d: ids=%v ep=%d err=%v", i, a.IDs, ep, err)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("two identical filtered queries ran %d fills; want 1", n)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats after fill+repeat: %+v", st)
	}
	if a, ok := c.Get(k, 6); !ok || len(a.IDs) != 2 {
		t.Fatalf("Get of the filtered key: %v %v", a.IDs, ok)
	}
	if _, ok := c.Get(RangeKey(q, 3, ""), 6); ok {
		t.Fatal("unfiltered lookup hit a filtered entry")
	}
	if _, ok := c.Get(RangeKey(q, 3, `tags = "cold"`), 6); ok {
		t.Fatal("a different predicate hit the entry")
	}
	c.Put(KNNKey(q, 2, `level >= 1`), 6, Answer{Neighbors: []core.Neighbor{{ID: 3, Dist: 1}}})
	if a, ok := c.Get(KNNKey(q, 2, `level >= 1`), 6); !ok || len(a.Neighbors) != 1 {
		t.Fatalf("Put filtered kNN answer not served: %v %v", a.Neighbors, ok)
	}
}
