// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§6) at configurable scale: the
// construction-cost table (Table 4), the update-cost table (Table 6), the
// EPT/EPT* and M-index/M-index* comparisons (Figs 14-15), the MRQ radius
// sweep (Fig 16), the MkNNQ k sweep (Fig 17), the pivot-count sweep
// (Fig 18), and the library's ablation studies.
//
// Methodology mirrors §6.1: one HFI pivot set per (dataset, |P|) shared
// by every index (except EPT/EPT* and BKT, which choose their own pivots
// by design); 4 KB pages, except 40 KB for CPT and the PM-tree on
// high-dimensional data; a 128 KB LRU cache enabled for MkNNQ on the
// disk-based indexes; costs averaged over random query objects.
package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"metricindex/internal/bkt"
	"metricindex/internal/cache"
	"metricindex/internal/core"
	"metricindex/internal/cpt"
	"metricindex/internal/dataset"
	"metricindex/internal/epoch"
	"metricindex/internal/ept"
	"metricindex/internal/exec"
	"metricindex/internal/fqt"
	"metricindex/internal/mindex"
	"metricindex/internal/mvpt"
	"metricindex/internal/omni"
	"metricindex/internal/pivot"
	"metricindex/internal/pmtree"
	"metricindex/internal/shard"
	"metricindex/internal/spb"
	"metricindex/internal/store"
	"metricindex/internal/table"
)

// Config scales the experiments.
type Config struct {
	// N is the dataset cardinality (the paper uses ~1M; the default
	// 20,000 keeps a full run laptop-sized with identical trends).
	N int
	// Queries is the number of random query objects averaged per
	// measurement (paper: 100).
	Queries int
	// Pivots is the default |P| (paper default: 5).
	Pivots int
	// Seed drives all generation and sampling.
	Seed int64
	// Datasets restricts the run (nil = all four).
	Datasets []dataset.Kind
	// Workers routes query workloads through the concurrent batch engine
	// and fans out every index construction (table precomputes, BKT/FQT/
	// MVPT node-level builds, CPT/PM-tree partitioned bulk loads): 0
	// keeps the sequential per-query loop and builds (the paper's
	// single-threaded methodology), negative uses GOMAXPROCS, otherwise
	// that many worker goroutines. Answers are identical either way, and
	// for every structure except the two bulk-loaded ones so are
	// per-query compdists and PA (only CPU moves). The exceptions are
	// the PM-tree and CPT: Workers != 0 selects the partitioned M-tree
	// *bulk load*, which clusters objects onto different pages than
	// one-by-one insertion, so their per-query and update costs shift
	// slightly.
	Workers int
	// Shards partitions the dataset across that many sub-indexes behind a
	// scatter-gather front (internal/shard): every build wraps the chosen
	// index and every query fans out over the shards concurrently. 0 or 1
	// keeps the single unsharded structure. Answers are identical either
	// way; each shard selects its own HFI pivot set.
	Shards int
	// CacheMB wraps every build in an epoch-synchronized front with an
	// answer cache of that many megabytes (internal/cache): repeated
	// queries are then served memoized, and the measure functions report
	// the hit rate next to compdists/PA. 0 disables. Answers are
	// identical either way.
	CacheMB int
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.N <= 0 {
		c.N = 20000
	}
	if c.Queries <= 0 {
		c.Queries = 20
	}
	if c.Pivots <= 0 {
		c.Pivots = 5
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if len(c.Datasets) == 0 {
		c.Datasets = dataset.AllKinds
	}
	return c
}

// Env is one prepared dataset: generated objects, query workload, shared
// pivots, and calibrated radii.
type Env struct {
	Cfg    Config
	Gen    *dataset.Generated
	Pivots []int // HFI pivots, |P| = Cfg.Pivots
}

// NewEnv generates a dataset and selects its shared pivot set.
func NewEnv(kind dataset.Kind, cfg Config) (*Env, error) {
	cfg = cfg.WithDefaults()
	gen, err := dataset.Generate(kind, dataset.Config{N: cfg.N, Queries: cfg.Queries, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	pv, err := pivot.HFI(gen.Dataset, cfg.Pivots, pivot.Options{Seed: cfg.Seed + 1})
	if err != nil {
		return nil, err
	}
	return &Env{Cfg: cfg, Gen: gen, Pivots: pv}, nil
}

// Radius returns the query radius whose selectivity matches the given
// fraction (the paper's r axis is expressed as a result-set percentage).
func (e *Env) Radius(selectivity float64) float64 {
	return dataset.CalibrateRadius(e.Gen, selectivity)
}

// Discrete reports whether the dataset's metric supports BKT/FQT.
func (e *Env) Discrete() bool {
	return e.Gen.Dataset.Space().Metric().Discrete()
}

// bigObjects reports whether CPT/PM-tree need the 40 KB page (§6.1: used
// on Color and Synthetic).
func (e *Env) bigObjects() bool {
	return e.Gen.Kind == dataset.Color || e.Gen.Kind == dataset.Synthetic
}

// Built is an index plus its pager (nil for in-memory indexes). A sharded
// disk index spans one pager per shard, carried in Pagers. When
// Config.CacheMB is set, Index is the epoch.Live front (with the answer
// cache attached) over the built structure, and Live names it.
type Built struct {
	Name   string
	Index  core.Index
	Pager  *store.Pager
	Pagers []*store.Pager
	Live   *epoch.Live
}

// CacheStats snapshots the answer cache's counters; ok is false when the
// build carries no cache (Config.CacheMB was 0).
func (b *Built) CacheStats() (cache.Stats, bool) {
	if b.Live == nil {
		return cache.Stats{}, false
	}
	return b.Live.CacheStats()
}

// SetCacheBytes adjusts the buffer cache for disk indexes; no-op for
// in-memory structures. Sharded disk indexes get the cache on every
// shard's pager.
func (b *Built) SetCacheBytes(n int) {
	if b.Pager != nil {
		b.Pager.SetCacheBytes(n)
	}
	for _, p := range b.Pagers {
		p.SetCacheBytes(n)
	}
}

// Builder constructs one index over an environment.
type Builder struct {
	Name string
	// DiscreteOnly marks BKT/FQT, skipped on continuous metrics.
	DiscreteOnly bool
	Build        func(e *Env) (*Built, error)
}

// pagerFor allocates the per-index pager with the §6.1 page-size rule.
func pagerFor(e *Env, large bool) *store.Pager {
	size := store.DefaultPageSize
	if large && e.bigObjects() {
		size = store.LargePageSize
	}
	return store.NewPager(size)
}

// Builders returns the paper's index lineup keyed by name.
func Builders() []Builder {
	return []Builder{
		{Name: "LAESA", Build: func(e *Env) (*Built, error) {
			var idx core.Index
			var err error
			if e.Cfg.Workers != 0 {
				idx, err = table.NewLAESAParallel(e.Gen.Dataset, e.Pivots, e.Cfg.Workers)
			} else {
				idx, err = table.NewLAESA(e.Gen.Dataset, e.Pivots)
			}
			return &Built{Name: "LAESA", Index: idx}, err
		}},
		{Name: "EPT", Build: func(e *Env) (*Built, error) {
			idx, err := ept.New(e.Gen.Dataset, ept.Original, ept.Options{
				L: e.Cfg.Pivots, Radius: e.Radius(0.16),
				Sel: pivot.Options{Seed: e.Cfg.Seed + 2}, Workers: e.Cfg.Workers,
			})
			return &Built{Name: "EPT", Index: idx}, err
		}},
		{Name: "EPT*", Build: func(e *Env) (*Built, error) {
			idx, err := ept.New(e.Gen.Dataset, ept.Star, ept.Options{
				L: e.Cfg.Pivots, Sel: pivot.Options{Seed: e.Cfg.Seed + 2},
				Workers: e.Cfg.Workers,
			})
			return &Built{Name: "EPT*", Index: idx}, err
		}},
		{Name: "CPT", Build: func(e *Env) (*Built, error) {
			p := pagerFor(e, true)
			idx, err := cpt.New(e.Gen.Dataset, p, e.Pivots, cpt.Options{Seed: e.Cfg.Seed, Workers: e.Cfg.Workers})
			return &Built{Name: "CPT", Index: idx, Pager: p}, err
		}},
		{Name: "BKT", DiscreteOnly: true, Build: func(e *Env) (*Built, error) {
			idx, err := bkt.New(e.Gen.Dataset, bkt.Options{
				Seed: e.Cfg.Seed, MaxDistance: e.Gen.MaxDistance, Workers: e.Cfg.Workers,
			})
			return &Built{Name: "BKT", Index: idx}, err
		}},
		{Name: "FQT", DiscreteOnly: true, Build: func(e *Env) (*Built, error) {
			idx, err := fqt.New(e.Gen.Dataset, e.Pivots, fqt.Options{
				MaxDistance: e.Gen.MaxDistance, Workers: e.Cfg.Workers,
			})
			return &Built{Name: "FQT", Index: idx}, err
		}},
		{Name: "MVPT", Build: func(e *Env) (*Built, error) {
			idx, err := mvpt.New(e.Gen.Dataset, e.Pivots, mvpt.Options{Workers: e.Cfg.Workers})
			return &Built{Name: "MVPT", Index: idx}, err
		}},
		{Name: "PM-tree", Build: func(e *Env) (*Built, error) {
			p := pagerFor(e, true)
			idx, err := pmtree.New(e.Gen.Dataset, p, e.Pivots, pmtree.Options{
				Seed: e.Cfg.Seed, Workers: e.Cfg.Workers,
			})
			return &Built{Name: "PM-tree", Index: idx, Pager: p}, err
		}},
		{Name: "OmniR-tree", Build: func(e *Env) (*Built, error) {
			p := pagerFor(e, false)
			idx, err := omni.NewRTree(e.Gen.Dataset, p, e.Pivots, omni.Options{
				MaxDistance: e.Gen.MaxDistance, Workers: e.Cfg.Workers,
			})
			return &Built{Name: "OmniR-tree", Index: idx, Pager: p}, err
		}},
		{Name: "M-index", Build: func(e *Env) (*Built, error) {
			p := pagerFor(e, false)
			idx, err := mindex.New(e.Gen.Dataset, p, e.Pivots, mindex.Options{
				MaxDistance: e.Gen.MaxDistance,
			})
			return &Built{Name: "M-index", Index: idx, Pager: p}, err
		}},
		{Name: "M-index*", Build: func(e *Env) (*Built, error) {
			p := pagerFor(e, false)
			idx, err := mindex.New(e.Gen.Dataset, p, e.Pivots, mindex.Options{
				Star: true, MaxDistance: e.Gen.MaxDistance,
			})
			return &Built{Name: "M-index*", Index: idx, Pager: p}, err
		}},
		{Name: "SPB-tree", Build: func(e *Env) (*Built, error) {
			p := pagerFor(e, false)
			idx, err := spb.New(e.Gen.Dataset, p, e.Pivots, spb.Options{MaxDistance: e.Gen.MaxDistance})
			return &Built{Name: "SPB-tree", Index: idx, Pager: p}, err
		}},
	}
}

// QueryLineup is the nine-index lineup of Figs 16-18.
var QueryLineup = []string{
	"EPT*", "CPT", "BKT", "FQT", "MVPT", "SPB-tree", "M-index*", "PM-tree", "OmniR-tree",
}

// BuilderByName finds a builder.
func BuilderByName(name string) (Builder, error) {
	for _, b := range Builders() {
		if b.Name == name {
			return b, nil
		}
	}
	return Builder{}, fmt.Errorf("bench: unknown index %q", name)
}

// WithDataset derives the environment for a build over a replacement
// dataset: the same config, queries and d+, with a fresh HFI pivot set
// selected on the dataset. The serving layer's graceful swap rebuilds
// through this (the live dataset has drifted from the one the process
// loaded), and the shard sub-builds specialize it below.
func (e *Env) WithDataset(sub *core.Dataset) (*Env, error) {
	pv, err := pivot.HFI(sub, e.Cfg.Pivots, pivot.Options{Seed: e.Cfg.Seed + 1})
	if err != nil {
		return nil, err
	}
	cfg := e.Cfg
	cfg.N = sub.Count()
	gen := &dataset.Generated{
		Kind:        e.Gen.Kind,
		Dataset:     sub,
		Queries:     e.Gen.Queries,
		MaxDistance: e.Gen.MaxDistance,
	}
	return &Env{Cfg: cfg, Gen: gen, Pivots: pv}, nil
}

// shardEnv derives the environment one shard builds in. Shards and
// Workers are cleared — the shards themselves are the parallelism, and a
// sub-build must not re-shard.
func (e *Env) shardEnv(sub *core.Dataset) (*Env, error) {
	se, err := e.WithDataset(sub)
	if err != nil {
		return nil, err
	}
	se.Cfg.Shards = 0
	se.Cfg.Workers = 0
	return se, nil
}

// ShardedBuilder wraps a builder so it constructs a scatter-gather sharded
// index instead: the dataset is partitioned across `shards` sub-indexes,
// each built by the wrapped builder over its own shard environment.
func ShardedBuilder(b Builder, shards int) Builder {
	return Builder{
		Name:         b.Name,
		DiscreteOnly: b.DiscreteOnly,
		Build: func(e *Env) (*Built, error) {
			var mu sync.Mutex
			var pagers []*store.Pager
			idx, err := shard.New(e.Gen.Dataset, func(sub *core.Dataset) (core.Index, error) {
				se, err := e.shardEnv(sub)
				if err != nil {
					return nil, err
				}
				built, err := b.Build(se)
				if err != nil {
					return nil, err
				}
				if built.Pager != nil {
					mu.Lock()
					pagers = append(pagers, built.Pager)
					mu.Unlock()
				}
				return built.Index, nil
			}, shard.Options{Shards: shards, Workers: e.Cfg.Workers})
			if err != nil {
				return nil, err
			}
			return &Built{Name: idx.Name(), Index: idx, Pagers: pagers}, nil
		},
	}
}

// QueryCost aggregates per-query averages, plus the latency percentiles
// a serving layer's SLOs are written against (nearest-rank, identical
// definition in the sequential loop, the batch engine, and the server).
// CacheHits/CacheHitRate cover the measured workload when the build
// carries an answer cache (Config.CacheMB): hits cost zero compdists
// and zero PA, which is exactly what the averages then show.
type QueryCost struct {
	CompDists     float64
	PA            float64
	CPU           time.Duration
	P50, P95, P99 time.Duration
	CacheHits     int64
	CacheHitRate  float64
}

// cacheDelta fills the cache columns of a QueryCost from the counter
// movement across the measured workload.
func cacheDelta(b *Built, before cache.Stats, cost *QueryCost) {
	after, ok := b.CacheStats()
	if !ok {
		return
	}
	served := (after.Hits + after.Collapsed) - (before.Hits + before.Collapsed)
	computed := after.Misses - before.Misses
	cost.CacheHits = served
	if total := served + computed; total > 0 {
		cost.CacheHitRate = float64(served) / float64(total)
	}
}

// engine returns the batch engine configured by Config.Workers, or nil
// when the sequential loop is requested.
func (e *Env) engine() *exec.Engine {
	if e.Cfg.Workers == 0 {
		return nil
	}
	return exec.New(e.Gen.Dataset.Space(), exec.Options{Workers: e.Cfg.Workers})
}

// MeasureRange averages MRQ(q, r) costs over the environment's queries,
// either sequentially or through the batch engine (Config.Workers).
func MeasureRange(e *Env, b *Built, r float64) (QueryCost, error) {
	return measure(e, b, epoch.Query{Kind: epoch.KindRange, R: r})
}

// MeasureKNN averages MkNNQ(q, k) costs over the environment's queries,
// with the paper's 128 KB cache enabled on disk indexes, either
// sequentially or through the batch engine (Config.Workers).
func MeasureKNN(e *Env, b *Built, k int) (QueryCost, error) {
	b.SetCacheBytes(store.DefaultCacheBytes)
	defer b.SetCacheBytes(0)
	return measure(e, b, epoch.Query{Kind: epoch.KindKNN, K: k})
}

// measure averages the costs of one query shape (kind and parameter)
// over the environment's queries.
func measure(e *Env, b *Built, shape epoch.Query) (QueryCost, error) {
	sp := e.Gen.Dataset.Space()
	sp.ResetCompDists()
	b.Index.ResetStats()
	cacheBefore, _ := b.CacheStats()
	n := float64(len(e.Gen.Queries))
	if eng := e.engine(); eng != nil {
		res, err := eng.Batch(context.Background(), b.Index, e.Gen.Queries, shape)
		if err != nil {
			return QueryCost{}, err
		}
		cost := QueryCost{
			CompDists: res.Stats.PerQueryCompDists(),
			PA:        res.Stats.PerQueryPageAccesses(),
			CPU:       time.Duration(float64(res.Stats.Wall) / n),
			P50:       res.Stats.P50, P95: res.Stats.P95, P99: res.Stats.P99,
		}
		cacheDelta(b, cacheBefore, &cost)
		return cost, nil
	}
	durs := make([]time.Duration, 0, len(e.Gen.Queries))
	start := time.Now()
	for _, q := range e.Gen.Queries {
		qStart := time.Now()
		var err error
		if shape.Kind == epoch.KindKNN {
			_, err = b.Index.KNNSearch(q, shape.K)
		} else {
			_, err = b.Index.RangeSearch(q, shape.R)
		}
		if err != nil {
			return QueryCost{}, err
		}
		durs = append(durs, time.Since(qStart))
	}
	elapsed := time.Since(start)
	cost := QueryCost{
		CompDists: float64(sp.CompDists()) / n,
		PA:        float64(b.Index.PageAccesses()) / n,
		CPU:       time.Duration(float64(elapsed) / n),
	}
	cost.P50, cost.P95, cost.P99 = exec.LatencyPercentiles(durs)
	cacheDelta(b, cacheBefore, &cost)
	return cost, nil
}

// BuildCost captures Table 4's columns.
type BuildCost struct {
	PA        int64
	CompDists int64
	Time      time.Duration
	MemBytes  int64
	DiskBytes int64
}

// MeasureBuild constructs an index and records its cost. Config.Shards > 1
// transparently swaps in the sharded variant of the builder;
// Config.CacheMB > 0 wraps the result in an epoch.Live front with an
// answer cache of that budget (answers are identical, hot queries are
// memoized).
func MeasureBuild(e *Env, builder Builder) (*Built, BuildCost, error) {
	if e.Cfg.Shards > 1 {
		builder = ShardedBuilder(builder, e.Cfg.Shards)
	}
	sp := e.Gen.Dataset.Space()
	sp.ResetCompDists()
	start := time.Now()
	b, err := builder.Build(e)
	if err != nil {
		return nil, BuildCost{}, err
	}
	cost := BuildCost{
		CompDists: sp.CompDists(),
		Time:      time.Since(start),
		MemBytes:  b.Index.MemBytes(),
		DiskBytes: b.Index.DiskBytes(),
	}
	cost.PA = b.Index.PageAccesses()
	b.Index.ResetStats()
	if e.Cfg.CacheMB > 0 {
		b.Live = epoch.NewLive(e.Gen.Dataset, b.Index)
		b.Live.SetCache(cache.New(cache.Options{MaxBytes: int64(e.Cfg.CacheMB) << 20}))
		b.Index = b.Live
	}
	return b, cost, nil
}

// UpdateCost captures Table 6's columns (delete + reinsert, averaged).
type UpdateCost struct {
	PA        float64
	CompDists float64
	Time      time.Duration
}

// MeasureUpdate deletes and reinserts `rounds` random objects (§6.3).
func MeasureUpdate(e *Env, b *Built, rounds int) (UpdateCost, error) {
	ds := e.Gen.Dataset
	sp := ds.Space()
	ids := ds.LiveIDs()
	step := len(ids)/rounds + 1
	sp.ResetCompDists()
	b.Index.ResetStats()
	start := time.Now()
	count := 0
	for i := 0; i < len(ids) && count < rounds; i += step {
		id := ids[i]
		if err := b.Index.Delete(id); err != nil {
			return UpdateCost{}, fmt.Errorf("update delete %d: %w", id, err)
		}
		o := ds.Object(id)
		if err := ds.Delete(id); err != nil {
			return UpdateCost{}, err
		}
		newID := ds.Insert(o)
		if err := b.Index.Insert(newID); err != nil {
			return UpdateCost{}, fmt.Errorf("update insert %d: %w", newID, err)
		}
		count++
	}
	elapsed := time.Since(start)
	n := float64(count)
	return UpdateCost{
		PA:        float64(b.Index.PageAccesses()) / n,
		CompDists: float64(sp.CompDists()) / n,
		Time:      time.Duration(float64(elapsed) / n),
	}, nil
}

// Rounding units for report output.
const (
	usec = time.Microsecond
	msec = time.Millisecond
)

// SelectHFI exposes the harness's pivot selection for external tools.
func SelectHFI(ds *core.Dataset, k int, seed int64) ([]int, error) {
	return pivot.HFI(ds, k, pivot.Options{Seed: seed})
}
