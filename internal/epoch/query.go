package epoch

import (
	"time"

	"metricindex/internal/cache"
	"metricindex/internal/core"
	"metricindex/internal/obs"
	"metricindex/internal/plan"
)

// Kind selects the query type of a Query: the paper's two queries.
type Kind uint8

const (
	// KindRange is MRQ(q, r): every object within distance R of q.
	KindRange Kind = iota
	// KindKNN is MkNNQ(q, k): the K objects nearest to q.
	KindKNN
)

// Query is one search request — the single value every serving layer
// passes down, from the HTTP handler through the batch engine and the
// answer cache to the read section. Filter and Trace are optional: a
// nil Filter is the plain metric query, a nil Trace records nothing.
type Query struct {
	// Object is the query object q.
	Object core.Object
	// Kind selects MRQ (with R) or MkNNQ (with K).
	Kind Kind
	R    float64
	K    int
	// Filter restricts the answer to objects whose attribute bag
	// satisfies it. The planner runs inside the same read section as
	// the probe it plans, so the selectivity estimate, the strategy
	// choice and the answer all observe one dataset version.
	//
	// The pre-filter strategy scans the dataset, so filtered search
	// assumes the dataset-managed write paths (Add/Remove): after an
	// index-only Insert/Delete the dataset and index disagree about
	// liveness and the strategies would disagree about the answer.
	Filter *plan.Predicate
	// Trace receives the query's span timeline: cache_probe (when a
	// cache is attached), read_wait, plan (filtered queries only) and
	// read_section with the compdists and page-access deltas the search
	// spent, plus whatever spans the wrapped index records below it.
	Trace *obs.Trace
}

// Answer is the result of one Query: IDs (MRQ, ascending) or Neighbors
// (MkNNQ, by ascending distance, ties by id), the epoch the answer
// observed, and for a filtered query the plan that produced it.
type Answer struct {
	IDs       []int
	Neighbors []core.Neighbor
	// Epoch names the dataset version the answer is exact for. Answer
	// and epoch come from the same read section, so the pair is a valid
	// cache entry (an Epoch() call after the search could already
	// include later writes the answer does not).
	Epoch uint64
	// Strategy is the plan that answered a filtered query. The zero
	// value means no plan ran: the query was unfiltered, or its answer
	// came from the cache.
	Strategy plan.Strategy
}

// key is the query's answer-cache key. The predicate joins it through
// its canonical string, so the same (q, param) with different filters —
// or no filter — can never collide.
func (q Query) key() cache.Key {
	var filter string
	if q.Filter != nil {
		filter = q.Filter.String()
	}
	if q.Kind == KindKNN {
		return cache.KNNKey(q.Object, q.K, filter)
	}
	return cache.RangeKey(q.Object, q.R, filter)
}

func (a Answer) cached() cache.Answer {
	return cache.Answer{IDs: a.IDs, Neighbors: a.Neighbors}
}

func answerOf(c cache.Answer, ep uint64, st plan.Strategy) Answer {
	return Answer{IDs: c.IDs, Neighbors: c.Neighbors, Epoch: ep, Strategy: st}
}

// Search answers q in a read section. With a cache attached (SetCache)
// the answer may be served memoized — byte-identical to a fresh search,
// zero compdists, zero page accesses — and still exactly the answer some
// read section produced at the reported epoch; concurrent identical
// misses collapse onto one search.
//
// Traced misses bypass the cache's singleflight (collapsing onto
// another caller's fill would time that caller's work, not this
// query's) but still store their answer, so tracing a cold query warms
// the cache exactly like an untraced one.
func (l *Live) Search(q Query) (Answer, error) {
	c := l.cache.Load()
	if c == nil {
		return l.search(q)
	}
	k := q.key()
	if q.Trace != nil {
		probeStart := time.Now()
		ep := l.Epoch()
		hit, ok := c.Get(k, ep)
		span(q.Trace, "cache_probe", probeStart, 0, 0)
		if ok {
			return answerOf(hit, ep, 0), nil
		}
		ans, err := l.search(q)
		if err != nil {
			return Answer{}, err
		}
		c.Put(k, ans.Epoch, ans.cached())
		return ans, nil
	}
	var st plan.Strategy
	hit, ep, err := c.Do(k, l.Epoch(), func() (cache.Answer, uint64, error) {
		ans, err := l.search(q)
		st = ans.Strategy
		return ans.cached(), ans.Epoch, err
	})
	// st is still 0 when the cache answered (or another caller's
	// in-flight fill was joined): no plan ran for this query.
	return answerOf(hit, ep, st), err
}

// Peek returns the cached answer to q valid at the current epoch
// without computing anything on a miss — the batch engine's
// pre-dispatch probe. The returned slices are a private copy.
func (l *Live) Peek(q Query) (Answer, bool) {
	c := l.cache.Load()
	if c == nil {
		return Answer{}, false
	}
	ep := l.Epoch()
	hit, ok := c.Get(q.key(), ep)
	return answerOf(hit, ep, 0), ok
}

// tracer is the optional interface of wrapped indexes that can
// attribute trace spans below the read section (the sharded front
// records per-shard probes and the merge).
type tracer interface {
	RangeSearchTraced(q core.Object, r float64, tr *obs.Trace) ([]int, error)
	KNNSearchTraced(q core.Object, k int, tr *obs.Trace) ([]core.Neighbor, error)
}

// search is the read section behind every query, cached or not. An
// untraced query never reads the clock. Cost deltas are read inside the
// section from the structures the section already guards (never via the
// re-locking accessors, which could deadlock behind a queued writer).
// Compdists flow through the Space shared by every concurrent query, so
// under concurrency a span's delta can include neighbors' work — exact
// when one traced query runs alone, an upper bound otherwise.
func (l *Live) search(q Query) (Answer, error) {
	tr := q.Trace
	waitStart := clock(tr)
	l.mu.RLock()
	defer l.mu.RUnlock()
	span(tr, "read_wait", waitStart, 0, 0)
	ans := Answer{Epoch: l.epoch}
	// Any k at or above the live count already returns every live
	// object, so clamping changes no answer — it only keeps a huge k
	// from sizing a huge heap.
	k := min(q.K, l.ds.Count())
	var sel float64
	if q.Filter != nil {
		planStart := clock(tr)
		sel = l.stats.Selectivity(q.Filter)
		ans.Strategy = plan.Choose(sel, l.ds.Count(), plan.Capable(l.idx))
		span(tr, "plan", planStart, 0, 0)
	}
	var compBase, paBase int64
	if tr != nil {
		compBase, paBase = l.ds.Space().CompDists(), l.idx.PageAccesses()
	}
	secStart := clock(tr)
	var ti tracer
	if tr != nil {
		ti, _ = l.idx.(tracer)
	}
	var err error
	switch {
	case q.Filter != nil && q.Kind == KindKNN:
		ans.Neighbors, err = plan.ExecKNN(l.ds, l.idx, q.Filter, q.Object, k, ans.Strategy, sel)
	case q.Filter != nil:
		ans.IDs, err = plan.ExecRange(l.ds, l.idx, q.Filter, q.Object, q.R, ans.Strategy)
	case q.Kind == KindKNN && ti != nil:
		ans.Neighbors, err = ti.KNNSearchTraced(q.Object, k, tr)
	case q.Kind == KindKNN:
		ans.Neighbors, err = l.idx.KNNSearch(q.Object, k)
	case ti != nil:
		ans.IDs, err = ti.RangeSearchTraced(q.Object, q.R, tr)
	default:
		ans.IDs, err = l.idx.RangeSearch(q.Object, q.R)
	}
	if tr != nil {
		span(tr, "read_section", secStart, l.ds.Space().CompDists()-compBase, max(l.idx.PageAccesses()-paBase, 0))
	}
	if q.Filter != nil {
		l.planCount(ans.Strategy)
	}
	return ans, err
}

// clock reads the time for a traced query only: an untraced query never
// touches the clock.
func clock(tr *obs.Trace) time.Time {
	if tr == nil {
		return time.Time{}
	}
	return time.Now()
}

// span records one span running from start until now; a no-op without a
// trace.
func span(tr *obs.Trace, name string, start time.Time, compdists, pageAccesses int64) {
	if tr != nil {
		tr.Add(name, start, time.Since(start), compdists, pageAccesses)
	}
}
