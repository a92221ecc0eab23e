package plan

import (
	"math"
	"sort"

	"metricindex/internal/core"
)

// Strategy is the execution shape of one filtered query. All three
// produce the same exact answer; they differ only in where the
// predicate is applied relative to the index probe, and therefore in
// compdists and page accesses.
type Strategy uint8

const (
	// StrategyPre scans the matching id-set linearly, skipping the
	// index entirely: when few objects match, computing their distances
	// directly beats any probe.
	StrategyPre Strategy = iota + 1
	// StrategyProbe pushes the predicate into the index's candidate-
	// verification step (core.AcceptSearcher): non-matching candidates
	// are rejected before their distance is computed, keeping the
	// index's geometric pruning and saving the compdists of rejected
	// candidates.
	StrategyProbe
	// StrategyPost filters the answers of an ordinary index probe; kNN
	// probes inflate k by the estimated selectivity and re-probe with a
	// doubled k until enough matches surface (terminally k = n, which
	// is exact by exhaustion).
	StrategyPost
)

// String returns the short name used in metrics labels and reports.
func (s Strategy) String() string {
	switch s {
	case StrategyPre:
		return "pre"
	case StrategyProbe:
		return "probe"
	case StrategyPost:
		return "post"
	}
	return "unknown"
}

// Strategies lists all strategies, for tests and metric registration.
var Strategies = []Strategy{StrategyPre, StrategyProbe, StrategyPost}

// Planner decision thresholds. A pre-filter costs one predicate
// evaluation per live object plus one distance per match, so it wins
// when matches are few in absolute terms or rare in relative terms.
// Past half the dataset matching, probe-side rejection saves little and
// post-filtering an ordinary probe keeps the index path hottest.
const (
	// preMaxMatches: expected match count at or below which the linear
	// pre-filter scan is chosen outright.
	preMaxMatches = 128
	// preMaxSel: selectivity at or below which pre-filter is chosen
	// regardless of dataset size.
	preMaxSel = 0.05
	// postMinSel: selectivity at or above which post-filter is chosen
	// (most answers survive the filter anyway).
	postMinSel = 0.5
)

// Capable reports whether the index supports predicate pushdown
// (probe-filtering).
func Capable(idx core.Index) bool {
	_, ok := idx.(core.AcceptSearcher)
	return ok
}

// Choose picks the strategy for a filtered query from the estimated
// selectivity sel, the live object count n, and whether the index can
// probe-filter. The choice never affects the answer, only its cost.
func Choose(sel float64, n int, probeCapable bool) Strategy {
	if sel <= preMaxSel || sel*float64(n) <= preMaxMatches {
		return StrategyPre
	}
	if sel >= postMinSel || !probeCapable {
		return StrategyPost
	}
	return StrategyProbe
}

// ExecRange answers MRQ(q, r) restricted to objects satisfying p,
// using the given strategy. StrategyProbe silently degrades to
// StrategyPost when the index cannot push predicates down. The result
// is in ascending id order, exactly the predicate-filtered subset of
// the unfiltered range answer.
func ExecRange(ds *core.Dataset, idx core.Index, p *Predicate, q core.Object, r float64, st Strategy) ([]int, error) {
	switch st {
	case StrategyPre:
		var res []int
		for id, o := range ds.Objects() {
			if o == nil || !p.EvalRow(ds.AttrRow(id)) {
				continue
			}
			if ds.Space().Distance(q, o) <= r {
				res = append(res, id)
			}
		}
		return res, nil
	case StrategyProbe:
		return ProbeRange(idx, q, r, accepts(ds, p))
	default:
		return PostRange(idx, q, r, accepts(ds, p))
	}
}

// accepts is p as an id test over ds's attribute rows — the accept
// callback of the probe and post strategies.
func accepts(ds *core.Dataset, p *Predicate) core.Accept {
	return func(id int) bool { return p.EvalRow(ds.AttrRow(id)) }
}

// ProbeRange answers MRQ(q, r) restricted to accepted ids, pushing the
// accept test into the index's candidate verification when the index
// can take it (core.AcceptSearcher) and degrading to PostRange when it
// cannot. Ids come back ascending.
func ProbeRange(idx core.Index, q core.Object, r float64, accept core.Accept) ([]int, error) {
	as, ok := idx.(core.AcceptSearcher)
	if !ok {
		return PostRange(idx, q, r, accept)
	}
	ids, err := as.RangeSearchAccept(q, r, accept)
	if err != nil {
		return nil, err
	}
	sort.Ints(ids)
	return ids, nil
}

// PostRange answers MRQ(q, r) restricted to accepted ids by filtering
// the index's unfiltered answer.
func PostRange(idx core.Index, q core.Object, r float64, accept core.Accept) ([]int, error) {
	ids, err := idx.RangeSearch(q, r)
	if err != nil {
		return nil, err
	}
	res := ids[:0]
	for _, id := range ids {
		if accept(id) {
			res = append(res, id)
		}
	}
	return res, nil
}

// ExecKNN answers MkNNQ(q, k) over objects satisfying p, using the
// given strategy. selHint seeds the post-filter's k inflation (pass the
// estimated selectivity; any value outside (0, 1] falls back to 0.5).
// Fewer than k neighbors are returned only when fewer than k live
// objects match the predicate.
func ExecKNN(ds *core.Dataset, idx core.Index, p *Predicate, q core.Object, k int, st Strategy, selHint float64) ([]core.Neighbor, error) {
	switch st {
	case StrategyPre:
		h := core.NewKNNHeap(k)
		for id, o := range ds.Objects() {
			if o == nil || !p.EvalRow(ds.AttrRow(id)) {
				continue
			}
			h.Push(id, ds.Space().Distance(q, o))
		}
		return h.Result(), nil
	case StrategyProbe:
		return ProbeKNN(idx, ds.Count(), q, k, accepts(ds, p), selHint)
	default:
		return PostKNN(idx, ds.Count(), q, k, accepts(ds, p), selHint)
	}
}

// ProbeKNN answers MkNNQ(q, k) over accepted ids, pushing the accept
// test down when the index can take it (core.AcceptSearcher) and
// degrading to PostKNN over the index's n live objects when it cannot.
func ProbeKNN(idx core.Index, n int, q core.Object, k int, accept core.Accept, selHint float64) ([]core.Neighbor, error) {
	if as, ok := idx.(core.AcceptSearcher); ok {
		return as.KNNSearchAccept(q, k, accept)
	}
	return PostKNN(idx, n, q, k, accept, selHint)
}

// PostKNN is the inflated-k re-probe loop: the k nearest accepted
// objects of an index over n live objects, found without pushing the
// accept test down. Each round probes the unfiltered index for kk
// neighbors and keeps the accepted ones; because the index's kNN answer
// is the top kk of the total (distance, id) order, its accepted subset
// is a prefix of the true filtered answer. kk starts at
// max(k/selHint, 2k) (selHint outside (0, 1] counts as 0.5) and doubles
// until k accepted neighbors surface or kk reaches n, at which point the
// probe was exhaustive.
func PostKNN(idx core.Index, n int, q core.Object, k int, accept core.Accept, selHint float64) ([]core.Neighbor, error) {
	if k <= 0 || n == 0 {
		return []core.Neighbor{}, nil
	}
	sel := selHint
	if !(sel > 0) || sel > 1 {
		sel = 0.5
	}
	kk := int(math.Ceil(float64(k) / sel))
	if kk < 2*k {
		kk = 2 * k
	}
	if kk > n {
		kk = n
	}
	for {
		nbrs, err := idx.KNNSearch(q, kk)
		if err != nil {
			return nil, err
		}
		matched := make([]core.Neighbor, 0, k)
		for _, nb := range nbrs {
			if accept(nb.ID) {
				matched = append(matched, nb)
				if len(matched) == k {
					return matched, nil
				}
			}
		}
		if kk >= n {
			return matched, nil
		}
		kk *= 2
		if kk > n {
			kk = n
		}
	}
}

// RunRange estimates, chooses, and executes in one call; it returns the
// strategy it picked so callers can record the plan mix.
func RunRange(ds *core.Dataset, idx core.Index, st *Stats, p *Predicate, q core.Object, r float64) ([]int, Strategy, error) {
	strat := Choose(st.Selectivity(p), ds.Count(), Capable(idx))
	ids, err := ExecRange(ds, idx, p, q, r, strat)
	return ids, strat, err
}

// RunKNN is the kNN counterpart of RunRange.
func RunKNN(ds *core.Dataset, idx core.Index, st *Stats, p *Predicate, q core.Object, k int) ([]core.Neighbor, Strategy, error) {
	sel := st.Selectivity(p)
	strat := Choose(sel, ds.Count(), Capable(idx))
	nbrs, err := ExecKNN(ds, idx, p, q, k, strat, sel)
	return nbrs, strat, err
}
