package ept

import (
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/testutil"
)

// eptKNNAllocBudget bounds the allocations of one uncached EPT kNN
// query (measured 9/op: query-pivot distances, the per-group scan
// state, the candidate heap, the sorted answer, and sort.Slice
// internals). Headroom covers toolchain drift; per-candidate allocation
// regressions blow far past it.
const eptKNNAllocBudget = 12

func TestEPTKNNSearchAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	ds := testutil.VectorDataset(500, 4, 100, core.L2{}, 7)
	idx, err := New(ds, Original, Options{L: 5, Radius: 20})
	if err != nil {
		t.Fatal(err)
	}
	var q core.Object = ds.Objects()[42]
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := idx.KNNSearch(q, 10); err != nil {
			panic(err)
		}
	})
	if allocs > eptKNNAllocBudget {
		t.Fatalf("EPT.KNNSearch allocated %.1f times per query; budget is %d", allocs, eptKNNAllocBudget)
	}
}

// TestEPTFlatKNNHotLoopZeroAllocs witnesses that the flat-path kNN scan
// (pool batch, indexed lower-bound columns, flat verification) runs
// without allocating once the scratch pool is warm; see the LAESA twin.
func TestEPTFlatKNNHotLoopZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	ds := testutil.VectorDataset(500, 4, 100, core.L2{}, 7)
	idx, err := New(ds, Original, Options{L: 5, Radius: 20})
	if err != nil {
		t.Fatal(err)
	}
	if !idx.useFlat() {
		t.Fatal("flat path not armed on a pure-vector dataset")
	}
	var q core.Object = ds.Objects()[42]
	if _, err := idx.KNNSearch(q, 10); err != nil { // warm the scratch pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		sc := idx.queryPrep(q)
		q64, q32, ok := idx.flat.QueryCoords(q, sc)
		if !ok {
			panic("query does not fit the flat mirror")
		}
		h := sc.Heap(10)
		idx.knnFlat(q64, q32, sc, h, nil)
		idx.scratch.Put(sc)
	})
	if allocs != 0 {
		t.Fatalf("flat kNN hot loop allocated %.1f times per query; want 0", allocs)
	}
}
