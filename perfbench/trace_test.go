package main

import (
	"math"
	"testing"
	"time"
)

// A hand-built span tree: request → handler → sharded index → two
// shards, plus a journal append under the same handler.
func TestSelfTimesAndStraggler(t *testing.T) {
	const us = int64(time.Microsecond)
	const query, object = 7, 9 // content keys
	spans := []span{
		{kind: spanRequest, reqOp: opKNN, start: 0, end: 100 * us, req: 1},
		{kind: spanHandler, start: 10 * us, end: 90 * us, req: 1},
		{kind: spanIndex, op: spanKNN, start: 20 * us, end: 70 * us, key: query},
		{kind: spanShard, op: spanKNN, start: 25 * us, end: 50 * us, key: query, n: 0},
		{kind: spanShard, op: spanKNN, start: 25 * us, end: 65 * us, key: query, n: 1},
		{kind: spanJournal, op: spanAppend, start: 72 * us, end: 80 * us, key: object},
	}
	for i := range spans {
		if spans[i].kind != spanRequest && spans[i].kind != spanHandler {
			spans[i].req = 0
		}
		spans[i].parent = -1
	}
	link(spans, requestKeys{1: {query, object}})

	wantParent := []int32{-1, 0, 1, 2, 2, 1}
	for i, p := range wantParent {
		if spans[i].parent != p {
			t.Errorf("span %d (%s): parent %d, want %d", i, spanKindNames[spans[i].kind], spans[i].parent, p)
		}
		if i > 0 && spans[i].req != 1 {
			t.Errorf("span %d: request %d, want 1", i, spans[i].req)
		}
	}
	kids := children(spans)
	// Handler: 80 µs minus the index (50) and the journal (8).
	if got := selfTime(spans, 1, kids[1]); got != 22*us {
		t.Errorf("handler self time %v, want 22µs", time.Duration(got))
	}
	// Index: 50 µs minus the union of the overlapping shards, 25..65.
	if got := selfTime(spans, 2, kids[2]); got != 10*us {
		t.Errorf("index self time %v, want 10µs", time.Duration(got))
	}
	if got, want := stragglerRatio(spans, kids[2]), 40/32.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("straggler ratio %v, want %v", got, want)
	}

	rep := &report{}
	spanMetrics(rep, spans, workload{BatchSize: 16})
	for name, want := range map[string]float64{
		"http.self_us":          20,
		"server.self_us.knn":    22,
		"shard.merge_self_us":   10,
		"shard.straggler_ratio": 40 / 32.5,
		"index.knn_us":          50,
		"persist.append_us.p50": 8,
	} {
		if got := rep.values[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}
