// Package cache is the epoch-keyed answer cache: a byte-budgeted,
// sharded LRU that memoizes whole query answers (MRQ id lists, MkNNQ
// neighbor lists) keyed by the query object, the query kind and
// parameter, the canonical filter predicate, and the index epoch the
// answer was observed at.
//
// The paper's only cache is the 128 KB page cache that reduces PA for
// the disk-based indexes; nothing there memoizes answers, so a hot
// query re-pays its full distance computations on every arrival. This
// cache elides that recomputable per-query work entirely: a hit costs a
// hash lookup and zero compdists, zero page accesses.
//
// Correctness comes from epoch keying. epoch.Live returns, from inside
// every search's read section, the monotone epoch of the dataset
// version the answer observed; the cache stores the answer under that
// epoch and serves it only to lookups at the same epoch. Any committed
// insert, delete or swap bumps the epoch, so every cached answer
// self-invalidates — there is no explicit invalidation path to get
// wrong. One entry exists per Key (query, kind, parameter, filter); a
// fill at a newer epoch replaces the stale entry in place.
//
// Concurrent identical misses collapse through a per-shard singleflight:
// the first caller computes, the rest wait and share the answer (counted
// in Stats.Collapsed). Flights are keyed by epoch too, so a fill for an
// old dataset version is never handed to a caller at a newer one.
package cache

import (
	"container/list"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"

	"metricindex/internal/core"
)

// errFillPanicked is what singleflight waiters receive when the
// leader's fetch panicked: the flight is released (nothing is cached)
// and the panic propagates in the leader's goroutine.
var errFillPanicked = errors.New("cache: fill panicked")

// DefaultMaxBytes is the answer-byte budget used when Options.MaxBytes
// is unset: 32 MB, enough for hundreds of thousands of typical answers.
const DefaultMaxBytes = 32 << 20

// DefaultShards is the lock-striping factor used when Options.Shards is
// unset.
const DefaultShards = 16

// Options configures a Cache. The zero value gets DefaultMaxBytes and
// DefaultShards.
type Options struct {
	// MaxBytes bounds the estimated bytes of cached answers across all
	// shards; the least recently used entries are evicted beyond it.
	// <= 0 uses DefaultMaxBytes.
	MaxBytes int64
	// Shards is the lock-striping factor; <= 0 uses DefaultShards.
	Shards int
}

func (o Options) withDefaults() Options {
	if o.MaxBytes <= 0 {
		o.MaxBytes = DefaultMaxBytes
	}
	if o.Shards <= 0 {
		o.Shards = DefaultShards
	}
	return o
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits is the number of lookups served from a stored entry.
	Hits int64
	// Misses is the number of fills actually computed.
	Misses int64
	// Collapsed is the number of callers served by waiting on another
	// caller's in-flight fill (singleflight) instead of computing.
	Collapsed int64
	// Evictions counts entries dropped to stay inside the byte budget.
	Evictions int64
	// Entries and Bytes describe the currently resident answers.
	Entries int64
	Bytes   int64
	// MaxBytes echoes the configured budget.
	MaxBytes int64
}

// HitRate is the fraction of lookups that avoided computing: hits plus
// collapsed waiters over all lookups. Zero before any traffic.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses + s.Collapsed
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Collapsed) / float64(total)
}

// Kind discriminates the two query types in cache keys.
type Kind uint8

const (
	// KindRange is MRQ(q, r); Key.Param carries the radius bits.
	KindRange Kind = 1
	// KindKNN is MkNNQ(q, k); Key.Param carries k.
	KindKNN Kind = 2
)

// Key identifies one cached query: the query object, the kind, the
// parameter bits (radius bits or k), and the canonical filter predicate
// ("" for unfiltered searches). The filter joins both the digest and
// the equality guard, so a filtered answer can never be served to an
// unfiltered lookup or to a different predicate. The epoch is
// deliberately NOT part of the key — one entry lives per query, stamped
// with the epoch it was observed at, so a fill at a newer epoch replaces
// the stale answer instead of accumulating dead versions.
type Key struct {
	Query  core.Object
	Kind   Kind
	Param  uint64
	Filter string
}

// RangeKey is the key of MRQ(q, r) under the given canonical filter.
func RangeKey(q core.Object, r float64, filter string) Key {
	return Key{Query: q, Kind: KindRange, Param: math.Float64bits(r), Filter: filter}
}

// KNNKey is the key of MkNNQ(q, k) under the given canonical filter.
func KNNKey(q core.Object, k int, filter string) Key {
	return Key{Query: q, Kind: KindKNN, Param: uint64(k), Filter: filter}
}

// Answer is one memoized query answer: IDs for MRQ, Neighbors for
// MkNNQ.
type Answer struct {
	IDs       []int
	Neighbors []core.Neighbor
}

// clone copies the answer's slices, so neither the cache nor a caller
// ever aliases the other's memory.
func (a Answer) clone() Answer {
	return Answer{
		IDs:       append([]int(nil), a.IDs...),
		Neighbors: append([]core.Neighbor(nil), a.Neighbors...),
	}
}

// slot is the map key of a resident entry: the digest of the full Key
// plus its kind and parameter. Digest collisions are resolved by the
// full comparison in sameQuery.
type slot struct {
	digest uint64
	kind   Kind
	param  uint64
}

// flightKey identifies one in-flight fill. Unlike entries, flights carry
// the epoch: a caller at a newer epoch must not wait on (and be handed)
// a fill for an older dataset version.
type flightKey struct {
	slot  slot
	epoch uint64
}

// flight is one in-flight fill other callers can wait on.
type flight struct {
	key   Key // collision guard, same as entry.key
	done  chan struct{}
	ans   Answer
	epoch uint64
	err   error
}

// entry is one resident answer.
type entry struct {
	slot  slot
	key   Key
	epoch uint64
	ans   Answer
	bytes int64
	elem  *list.Element
}

// sameQuery reports whether two keys name the same query: the
// collision guard behind every digest match.
//
//metriclint:noalloc
func sameQuery(a, b Key) bool {
	return a.Filter == b.Filter && objectEqual(a.Query, b.Query)
}

// shard is one lock stripe: an LRU over its share of the byte budget
// plus the singleflight table for fills that hash here.
type shard struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	entries  map[slot]*entry
	lru      *list.List // front = most recently used
	flights  map[flightKey]*flight
}

// Cache is the epoch-keyed answer cache. Safe for concurrent use.
type Cache struct {
	shards    []*shard
	maxBytes  int64
	hits      atomic.Int64
	misses    atomic.Int64
	collapsed atomic.Int64
	evictions atomic.Int64
}

// New builds a cache. The zero Options is valid (32 MB, 16 shards).
func New(opts Options) *Cache {
	opts = opts.withDefaults()
	c := &Cache{shards: make([]*shard, opts.Shards), maxBytes: opts.MaxBytes}
	per := opts.MaxBytes / int64(opts.Shards)
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i] = &shard{
			maxBytes: per,
			entries:  make(map[slot]*entry),
			lru:      list.New(),
			flights:  make(map[flightKey]*flight),
		}
	}
	return c
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	s := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Collapsed: c.collapsed.Load(),
		Evictions: c.evictions.Load(),
		MaxBytes:  c.maxBytes,
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		s.Entries += int64(len(sh.entries))
		s.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return s
}

//metriclint:noalloc
func slotOf(k Key) slot {
	return slot{digest: digest(k), kind: k.Kind, param: k.Param}
}

//metriclint:noalloc
func (c *Cache) shardFor(s slot) *shard {
	return c.shards[s.digest%uint64(len(c.shards))]
}

// Get returns the cached answer for k observed at exactly the given
// epoch, or ok=false. The returned slices are the caller's to keep (a
// copy).
func (c *Cache) Get(k Key, epoch uint64) (Answer, bool) {
	e := c.lookup(slotOf(k), k, epoch)
	if e == nil {
		return Answer{}, false
	}
	return e.ans.clone(), true
}

// lookup finds a resident entry matching (k, epoch), touching its LRU
// position and counting the hit. Lookups that miss are not counted —
// the compute path (Do, Put) counts exactly one miss per fill, so a
// peek-then-fill sequence is not double-counted.
//
//metriclint:noalloc
func (c *Cache) lookup(s slot, k Key, epoch uint64) *entry {
	sh := c.shardFor(s)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.entries[s]
	if e == nil || e.epoch != epoch || !sameQuery(e.key, k) {
		return nil
	}
	sh.lru.MoveToFront(e.elem)
	c.hits.Add(1)
	return e
}

// Fill computes a fresh answer, reporting the epoch it was observed at
// (epoch.Live's read section has exactly this shape).
type Fill func() (Answer, uint64, error)

// Do answers the query k through the cache: a resident entry at the
// lookup epoch is returned immediately; otherwise concurrent identical
// misses collapse onto one fetch whose answer is stored under the epoch
// it observed and shared with every waiter. The returned epoch is the
// dataset version the answer is exact for (>= the lookup epoch when a
// write committed between the caller reading its epoch and the fetch
// running). Returned slices are copies — callers may keep and mutate
// them.
func (c *Cache) Do(k Key, epoch uint64, fetch Fill) (Answer, uint64, error) {
	s := slotOf(k)
	e, f, leader := c.acquire(s, k, epoch)
	switch {
	case e != nil:
		return e.ans.clone(), e.epoch, nil
	case f != nil && !leader:
		<-f.done
		if f.err != nil {
			return Answer{}, 0, f.err
		}
		c.collapsed.Add(1)
		return f.ans.clone(), f.epoch, nil
	}
	// The release is deferred so a panicking fetch still wakes every
	// waiter (with errFillPanicked, nothing cached) instead of leaving
	// them blocked on a dead flight; the panic itself propagates.
	var ans Answer
	var ep uint64
	err := errFillPanicked
	defer func() {
		if f != nil {
			f.ans, f.epoch, f.err = ans, ep, err
		}
		c.release(s, flightKey{slot: s, epoch: epoch}, f, k, ep, ans, err)
	}()
	ans, ep, err = fetch()
	c.misses.Add(1)
	if err != nil {
		return Answer{}, 0, err
	}
	return ans.clone(), ep, nil
}

// Put stores an answer computed outside the cache (the traced search
// path bypasses Do's singleflight but still wants its answer resident).
// The fill is counted as one miss, mirroring what Do would have
// recorded. The answer is copied.
func (c *Cache) Put(k Key, epoch uint64, a Answer) {
	c.misses.Add(1)
	c.release(slotOf(k), flightKey{}, nil, k, epoch, a.clone(), nil)
}

// acquire resolves one cache attempt under the shard lock: a resident
// hit (e != nil), an existing flight to wait on (f != nil, leader
// false), or leadership of a new flight (f != nil, leader true). All
// nil means compute without singleflight — a digest collision is
// already in flight for a different query, too rare to serialize on.
func (c *Cache) acquire(s slot, k Key, epoch uint64) (e *entry, f *flight, leader bool) {
	sh := c.shardFor(s)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e = sh.entries[s]; e != nil && e.epoch == epoch && sameQuery(e.key, k) {
		sh.lru.MoveToFront(e.elem)
		c.hits.Add(1)
		return e, nil, false
	}
	fk := flightKey{slot: s, epoch: epoch}
	if f = sh.flights[fk]; f != nil {
		if sameQuery(f.key, k) {
			return nil, f, false
		}
		return nil, nil, false // digest collision with the in-flight query
	}
	f = &flight{key: k, done: make(chan struct{})}
	sh.flights[fk] = f
	return nil, f, true
}

// release publishes a finished fill: the flight (if any; Put has none)
// is closed so waiters wake, and a successful answer is stored under the
// epoch it observed, evicting LRU entries beyond the shard budget.
func (c *Cache) release(s slot, fk flightKey, f *flight, k Key, epoch uint64, a Answer, err error) {
	sh := c.shardFor(s)
	sh.mu.Lock()
	if f != nil {
		delete(sh.flights, fk)
	}
	if err == nil {
		c.store(sh, s, k, epoch, a)
	}
	sh.mu.Unlock()
	if f != nil {
		close(f.done)
	}
}

// store inserts or replaces the entry for s. The entry keeps the whole
// Key — filter included — so later lookups of the same filtered query
// pass the equality guard. Called with sh.mu held.
func (c *Cache) store(sh *shard, s slot, k Key, epoch uint64, a Answer) {
	size := entrySize(k.Query, a.IDs, a.Neighbors) + int64(len(k.Filter))
	if size > sh.maxBytes {
		return // larger than a whole stripe's budget: not cacheable
	}
	if old := sh.entries[s]; old != nil {
		if old.epoch > epoch {
			return // a fill for a newer dataset version already landed
		}
		sh.bytes -= old.bytes
		sh.lru.Remove(old.elem)
		delete(sh.entries, s)
	}
	e := &entry{slot: s, key: k, epoch: epoch, ans: a, bytes: size}
	e.elem = sh.lru.PushFront(e)
	sh.entries[s] = e
	sh.bytes += size
	for sh.bytes > sh.maxBytes {
		back := sh.lru.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*entry)
		sh.lru.Remove(back)
		delete(sh.entries, victim.slot)
		sh.bytes -= victim.bytes
		c.evictions.Add(1)
	}
}

// entrySize estimates the resident bytes of one answer: a fixed
// per-entry overhead (map bucket, list element, headers) plus the query
// and answer payloads.
func entrySize(q core.Object, ids []int, nns []core.Neighbor) int64 {
	const overhead = 128
	return overhead + objectBytes(q) + int64(len(ids))*8 + int64(len(nns))*16
}

func objectBytes(q core.Object) int64 {
	switch v := q.(type) {
	case core.Vector:
		return int64(len(v)) * 8
	case core.IntVector:
		return int64(len(v)) * 4
	case core.Word:
		return int64(len(v))
	default:
		return 64
	}
}

// FNV-1a parameters for the key digest.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

//metriclint:noalloc
func fnvByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime64
}

//metriclint:noalloc
func fnvWord(h uint64, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(w>>(8*i)))
	}
	return h
}

// digest hashes the query object together with the kind, parameter and
// filter into the 64-bit FNV-1a key digest. Collisions are guarded by the full
// objectEqual comparison on every hit, so a collision can only cost a
// miss, never a wrong answer.
//
// The hashing runs as plain helper functions, not closures over the
// running hash: this is the cache hit path, and a capturing closure is
// one heap allocation per probe. (The default arm formats unknown object
// types through fmt and is the one allocating escape hatch; the three
// library object kinds stay on the annotated path.)
//
//metriclint:noalloc
func digest(k Key) uint64 {
	h := uint64(fnvOffset64)
	h = fnvByte(h, byte(k.Kind))
	h = fnvWord(h, k.Param)
	// The predicate joins the key through its canonical string: an
	// unfiltered query ("") and any filtered variant of the same (q,
	// param) hash — and compare — apart.
	h = fnvWord(h, uint64(len(k.Filter)))
	for i := 0; i < len(k.Filter); i++ {
		h = fnvByte(h, k.Filter[i])
	}
	switch v := k.Query.(type) {
	case core.Vector:
		for _, x := range v {
			h = fnvWord(h, math.Float64bits(x))
		}
	case core.IntVector:
		for _, x := range v {
			h = fnvWord(h, uint64(uint32(x)))
		}
	case core.Word:
		for i := 0; i < len(v); i++ {
			h = fnvByte(h, v[i])
		}
	default:
		s := fmt.Sprintf("%#v", k.Query)
		for i := 0; i < len(s); i++ {
			h = fnvByte(h, s[i])
		}
	}
	return h
}

// objectEqual compares two query objects for exact equality — the
// collision guard behind every digest match. The library's three object
// types compare structurally; unknown types fall back to
// reflect.DeepEqual. The three structural arms are allocation-free —
// this comparison runs on every cache hit.
//
//metriclint:noalloc
func objectEqual(a, b core.Object) bool {
	switch x := a.(type) {
	case core.Vector:
		y, ok := b.(core.Vector)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			// Compare by bit pattern, matching the digest: NaN payloads
			// hash apart, so they must compare apart too.
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	case core.IntVector:
		y, ok := b.(core.IntVector)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	case core.Word:
		y, ok := b.(core.Word)
		return ok && x == y
	default:
		return reflect.DeepEqual(a, b)
	}
}
