package shard

import "metricindex/internal/core"

// Per-shard predicate pushdown (core.AcceptSearcher): the accept test
// travels with the scatter, so each shard rejects non-matching
// candidates before their distance — concurrently, on the same worker
// pool as unfiltered probes. Shards whose sub-index cannot push the
// predicate down fall back to filtering their own answers (re-probing
// with an inflated k for kNN: plan.ProbeRange, plan.ProbeKNN), which
// keeps the merged answer exact whatever mix of capabilities the shards
// have.

// RangeSearchAccept answers MRQ(q, r) restricted to accepted ids as the
// union of filtered shard answers. A nil accept is the unfiltered
// search.
func (s *Sharded) RangeSearchAccept(q core.Object, r float64, accept core.Accept) ([]int, error) {
	return s.rangeSearch(q, r, accept, nil)
}

// KNNSearchAccept answers MkNNQ(q, k) over accepted ids. A nil accept is
// the unfiltered search.
func (s *Sharded) KNNSearchAccept(q core.Object, k int, accept core.Accept) ([]core.Neighbor, error) {
	return s.knnSearch(q, k, accept, nil)
}
