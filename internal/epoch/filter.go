package epoch

import (
	"metricindex/internal/core"
	"metricindex/internal/plan"
)

// Filtered search itself runs through Search (Query.Filter); this file
// holds the attribute write path and the planner's estimator hooks.

// Selectivity estimates, in a read section, the fraction of live
// objects matching p — the planner's input, exposed for the stats
// endpoint and tests.
func (l *Live) Selectivity(p *plan.Predicate) float64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.stats.Selectivity(p)
}

// PlanStats runs fn over the planner's estimator in a read section —
// the consistency hook the churn property test verifies against. fn
// must not mutate the estimator or call back into l.
func (l *Live) PlanStats(fn func(s *plan.Stats)) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	fn(l.stats)
}

// SetAttrsAt replaces the attribute bag of a live object in one write
// section, keeping the estimator exact, and reports the epoch the
// write committed at. The object itself is untouched; the epoch still
// advances, so cached filtered answers from before the change cannot
// be served after it.
func (l *Live) SetAttrsAt(id int, a core.Attrs) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	old := l.ds.Attrs(id)
	if err := l.ds.SetAttrs(id, a); err != nil {
		return l.epoch, err
	}
	if err := l.journalAppend(OpSetAttrs, id, nil, a); err != nil {
		_ = l.ds.SetAttrs(id, old)
		return l.epoch, err
	}
	l.record(logEntry{setAttrs: true, id: id, attrs: a})
	l.stats.Remove(old)
	l.stats.Observe(a)
	l.epoch++
	return l.epoch, nil
}

// Attrs returns the attribute bag of a live object observed in a read
// section (nil when the object has none or the id is dead). The bag is
// shared — callers must not mutate it.
func (l *Live) Attrs(id int) core.Attrs {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.ds.Attrs(id)
}

// planCount bumps the per-strategy plan counter, if metrics are
// attached. Called inside the read section that ran the plan.
func (l *Live) planCount(st plan.Strategy) {
	m := l.metrics.Load()
	if m == nil {
		return
	}
	switch st {
	case plan.StrategyPre:
		if m.PlanPre != nil {
			m.PlanPre.Inc()
		}
	case plan.StrategyProbe:
		if m.PlanProbe != nil {
			m.PlanProbe.Inc()
		}
	case plan.StrategyPost:
		if m.PlanPost != nil {
			m.PlanPost.Inc()
		}
	}
}
