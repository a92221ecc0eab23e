package main

import (
	"encoding/json"
	"fmt"
	"slices"

	"metricindex/internal/core"
	"metricindex/internal/plan"
	"metricindex/internal/server"
	"metricindex/internal/store"
)

// costPass is the paper's cost model measured through the served path:
// one client sends a fixed list of distinct queries in order, right
// after set-up and before any load, so the compdists and page-access
// deltas around each request are exactly that query's cost.
type costPass struct {
	n          int
	compdists  int64
	pa         int64
	pageReads  int64 // store: physical page reads
	bufferHits int64 // store: reads the pager's buffer cache served
	answers    int64
	strategies map[string]int64
}

func (p *costPass) perQ(v int64) float64 { return float64(v) / float64(p.n) }

// runCostPass sends ops one at a time and checks every answer against
// a linear scan of the live dataset.
func runCostPass(c *client, st *stack, ops []op) (*costPass, error) {
	p := &costPass{n: len(ops), strategies: map[string]int64{}}
	var scratch []byte
	for i, o := range ops {
		cd0, pa0 := st.space.CompDists(), st.live.PageAccesses()
		r0, _, h0 := store.GlobalPageStats()
		out := c.do(o, &scratch, true)
		r1, _, h1 := store.GlobalPageStats()
		cd, pa := st.space.CompDists()-cd0, st.live.PageAccesses()-pa0
		if !out.ok {
			return nil, fmt.Errorf("cost query %d: status %d: %v", i, out.status, out.err)
		}
		p.compdists += cd
		p.pa += pa
		p.pageReads += r1 - r0
		p.bufferHits += h1 - h0
		if out.strategy != "" {
			p.strategies[out.strategy]++
		}
		n, err := verify(c.in, st, o, out.body)
		if err != nil {
			return nil, wrongAnswer{fmt.Errorf("cost query %d: %w", i, err)}
		}
		p.answers += int64(n)
	}
	return p, nil
}

// checkOps is the seeded sample answered again once the load phases
// have quiesced, checked against the live dataset as it then stands.
func (in *inputs) checkOps() []op {
	w := in.w
	ops := make([]op, w.Checks)
	for i := range ops {
		o := op{Kind: opKNN, Filter: -1}
		if in.uniform(i, 11) >= 0.5 {
			o.Kind = opRange
		}
		if w.Pool > 0 {
			o.Query = int(in.uniform(i, 12) * float64(w.Pool))
		} else {
			o.Query = w.CostProbes + i
		}
		if w.FilterFrac > 0 && in.uniform(i, 13) < w.FilterFrac {
			o.Filter = int(in.uniform(i, 14) * float64(len(filterBattery)))
		}
		if w.BatchFrac > 0 && i%10 == 9 {
			o = op{Kind: opBatch, Filter: -1, Batch: make([]int, w.BatchSize)}
			for j := range o.Batch {
				o.Batch[j] = int(in.uniform(i, 16+uint64(j)) * float64(w.Pool))
			}
		}
		ops[i] = o
	}
	return ops
}

// runChecks answers ops on a quiet server and verifies each answer.
func runChecks(c *client, st *stack, ops []op) error {
	var scratch []byte
	for i, o := range ops {
		out := c.do(o, &scratch, true)
		if !out.ok {
			return fmt.Errorf("check %d: status %d: %v", i, out.status, out.err)
		}
		if _, err := verify(c.in, st, o, out.body); err != nil {
			return wrongAnswer{fmt.Errorf("check %d: %w", i, err)}
		}
	}
	return nil
}

// verify compares a served answer with core.BruteForceKNN or
// core.BruteForceRange over the live dataset; a filtered query is
// checked by filtering the rows first and then scanning. It returns the
// number of answers.
func verify(in *inputs, st *stack, o op, body []byte) (int, error) {
	var pred *plan.Predicate
	if o.Filter >= 0 {
		var err error
		if pred, err = plan.Parse(filterBattery[o.Filter]); err != nil {
			return 0, err
		}
	}
	var mismatch error
	answers := 0
	st.live.View(func(ds *core.Dataset, _ core.Index) {
		scan := ds
		if pred != nil {
			scan = filtered(ds, pred)
		}
		switch o.Kind {
		case opKNN:
			var resp server.KNNResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				mismatch = err
				return
			}
			q := in.queryAt(o.Query)
			answers = len(resp.Neighbors)
			mismatch = sameKNN(resp.Neighbors, core.BruteForceKNN(scan, q, in.w.K), q, o)
		case opRange:
			var resp server.RangeResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				mismatch = err
				return
			}
			q := in.queryAt(o.Query)
			answers = len(resp.IDs)
			mismatch = sameIDs(resp.IDs, core.BruteForceRange(scan, q, in.radius), q, o)
		case opBatch:
			var resp server.BatchResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				mismatch = err
				return
			}
			if len(resp.Neighbors) != len(o.Batch) {
				mismatch = fmt.Errorf("batch: %d answers for %d queries", len(resp.Neighbors), len(o.Batch))
				return
			}
			for j, qi := range o.Batch {
				q := in.queryAt(qi)
				answers += len(resp.Neighbors[j])
				if err := sameKNN(resp.Neighbors[j], core.BruteForceKNN(scan, q, in.w.K), q, o); err != nil {
					mismatch = fmt.Errorf("batch query %d: %w", j, err)
					return
				}
			}
		}
	})
	return answers, mismatch
}

// filtered is the dataset restricted to rows whose bag satisfies p, at
// unchanged identifiers.
func filtered(ds *core.Dataset, p *plan.Predicate) *core.Dataset {
	objs := make([]core.Object, ds.Len())
	for id, o := range ds.Objects() {
		if o != nil && p.Eval(ds.Attrs(id)) {
			objs[id] = o
		}
	}
	return core.NewDataset(ds.Space(), objs)
}

func describe(q core.Object, o op) string {
	s := fmt.Sprintf("%s query %v", o.Kind, q)
	if o.Filter >= 0 {
		s += fmt.Sprintf(" filter %q", filterBattery[o.Filter])
	}
	return s
}

func sameKNN(got []server.Neighbor, want []core.Neighbor, q core.Object, o op) error {
	if slices.EqualFunc(got, want, func(g server.Neighbor, w core.Neighbor) bool {
		return g.ID == w.ID && g.Dist == w.Dist
	}) {
		return nil
	}
	return fmt.Errorf("wrong answer to %s: got %v, want %v", describe(q, o), got, want)
}

func sameIDs(got, want []int, q core.Object, o op) error {
	if slices.Equal(got, want) {
		return nil
	}
	return fmt.Errorf("wrong answer to %s: got %v, want %v", describe(q, o), got, want)
}
