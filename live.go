package metricindex

import (
	"metricindex/internal/cache"
	"metricindex/internal/core"
	"metricindex/internal/epoch"
)

// Live is an index whose Insert/Delete are epoch-synchronized with its
// searches, lifting the library's historical "do not interleave updates
// with a running batch" restriction for the structure it wraps, and
// whose whole structure can be hot-swapped (rebuilt in the background,
// cut over atomically) with Swap. Live implements Index, so it composes
// with the batch engine and anything else that consumes one.
//
// Live owns its dataset: mutate only through Add and Remove so dataset
// and index always change inside the same write section. Every committed
// write advances Epoch, a monotone version counter searches can be
// correlated against.
type Live = epoch.Live

// Query is one search request against a Live index — the object, the
// kind (KindRange with R, or KindKNN with K), an optional filter
// Predicate and an optional trace — answered by Live.Search:
//
//	ans, _ := live.Search(metricindex.Query{Object: q, Kind: metricindex.KindKNN, K: 10})
//	for _, nb := range ans.Neighbors { ... }
type Query = epoch.Query

// Answer is the result of Live.Search: IDs (range) or Neighbors (kNN),
// the epoch the answer observed, and for a filtered query the plan that
// produced it.
type Answer = epoch.Answer

// The two query kinds of a Query: MRQ(q, r) and MkNNQ(q, k).
const (
	KindRange = epoch.KindRange
	KindKNN   = epoch.KindKNN
)

// IndexBuilder constructs an index over a dataset — the rebuild callback
// of Live.Swap and ServerOptions.Builder. The shard builders in this
// package have the same shape, so one function can serve both roles.
type IndexBuilder = epoch.Builder

// ErrSwapInProgress is returned by Live.Swap while a rebuild is already
// running (one swap at a time).
var ErrSwapInProgress = epoch.ErrSwapInProgress

// CacheOptions configures the epoch-keyed answer cache of a Live index:
// a byte-budgeted, sharded LRU that memoizes whole query answers with
// singleflight collapse of concurrent identical misses. Entries are
// keyed by (query, kind, radius|k, epoch), so every committed
// Add/Remove/Insert/Delete/Swap invalidates the working set for free —
// a search that starts after a write commits can never be served a
// pre-write answer. The zero value uses the defaults (32 MB, 16
// shards).
type CacheOptions = cache.Options

// CacheStats is a snapshot of a Live index's answer-cache counters
// (Live.CacheStats); its HitRate method is the fraction of lookups that
// avoided computing.
type CacheStats = cache.Stats

// NewLive wraps an index and the dataset it was built over into an
// update-synchronized, hot-swappable front:
//
//	idx, _ := metricindex.NewLAESA(ds, pivots)
//	live := metricindex.NewLive(ds, idx)
//	go func() { _, _ = live.KNNSearch(q, 10) }()       // searches...
//	_, _ = live.Add(metricindex.Vector{1, 2})          // ...interleave with updates
//	_ = live.Swap(func(ds *metricindex.Dataset) (metricindex.Index, error) {
//		pv, err := metricindex.SelectPivots(ds, 5, 1)  // graceful rebuild:
//		if err != nil {                                // queries keep flowing,
//			return nil, err                            // zero wrong answers
//		}
//		return metricindex.NewLAESA(ds, pv)
//	})
//
// Passing a CacheOptions attaches the epoch-keyed answer cache, so hot
// queries are served memoized — byte-identical to a fresh search, zero
// compdists, zero page accesses — until the next committed write bumps
// the epoch:
//
//	live := metricindex.NewLive(ds, idx, metricindex.CacheOptions{MaxBytes: 64 << 20})
//	hits, _ := live.CacheStats()
func NewLive(ds *Dataset, idx Index, cacheOpts ...CacheOptions) *Live {
	l := epoch.NewLive(ds, idx)
	if len(cacheOpts) > 0 {
		l.SetCache(cache.New(cacheOpts[0]))
	}
	return l
}

// ensure the alias stays an Index.
var _ core.Index = (*Live)(nil)
