package main

import (
	"reflect"
	"testing"
)

// small shrinks a workload to test size, keeping its stack and mix.
func small(w workload) workload {
	w.N, w.Draw, w.CostProbes, w.Checks, w.Setups = 3000, 6000, 60, 10, 1
	if w.Pool > 0 {
		w.Pool, w.WALInserts, w.Inserts = 200, 100, 100
	}
	return w
}

type costSummary struct {
	compdists, pa, mem int64
	plans              map[string]int64
}

func costRun(t *testing.T, w workload, seed int64, traced bool) costSummary {
	t.Helper()
	in, err := makeInputs(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	f, err := prepare(in, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if w.Durable {
		if err := f.resetWAL(); err != nil {
			t.Fatal(err)
		}
	}
	var rec *recorder
	if traced {
		rec = newRecorder(1 << 16)
		rec.on.Store(true)
	}
	st, _, err := setUp(in, f, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer st.stop()
	c := newClient(in, st.base, rec)
	defer c.close()
	cp, err := runCostPass(c, st, in.costOps())
	if err != nil {
		t.Fatal(err)
	}
	if traced && rec.next.Load() == 0 {
		t.Error("traced cost pass recorded no spans")
	}
	return costSummary{cp.compdists, cp.pa, st.live.MemBytes() + st.live.DiskBytes(), cp.strategies}
}

// The cost pass is the exact regression signal: the same seed gives the
// same compdists, page accesses, memory and plan mix, and so does the
// traced stack, which proves the decorators change nothing below them.
// A different seed changes the query stream the load phases send.
func TestCostPassDeterministic(t *testing.T) {
	for _, w := range workloads {
		w := small(w)
		t.Run(w.Name, func(t *testing.T) {
			first := costRun(t, w, 1, false)
			if first.compdists == 0 {
				t.Fatal("cost pass computed no distances")
			}
			if again := costRun(t, w, 1, false); !reflect.DeepEqual(again, first) {
				t.Errorf("same seed: %+v, then %+v", first, again)
			}
			if traced := costRun(t, w, 1, true); !reflect.DeepEqual(traced, first) {
				t.Errorf("untraced %+v, traced %+v", first, traced)
			}
			if w.FilterFrac > 0 && len(first.plans) < 2 {
				t.Errorf("cost pass plan mix %v: want several strategies", first.plans)
			}

			a, err := makeInputs(w, 1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := makeInputs(w, 2)
			if err != nil {
				t.Fatal(err)
			}
			base := w.CostProbes + w.Checks
			differ := false
			for i := 0; i < 50 && !differ; i++ {
				oa, ob := a.opAt(i, base), b.opAt(i, base)
				differ = oa.Kind != ob.Kind || objectKey(a.queryAt(oa.Query)) != objectKey(b.queryAt(ob.Query))
			}
			if !differ {
				t.Error("seeds 1 and 2 send the same query stream")
			}
		})
	}
}
