package table

import (
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/testutil"
)

// laesaKNNAllocBudget bounds the allocations of one uncached LAESA kNN
// query (measured 6/op: the query-distance row, the candidate heap, the
// sorted answer, and sort.Slice internals). The budget leaves modest
// headroom for toolchain drift; a regression that adds per-candidate
// allocation blows far past it.
const laesaKNNAllocBudget = 8

func TestLAESAKNNSearchAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	ds := testutil.VectorDataset(500, 4, 100, core.L2{}, 7)
	idx, err := NewLAESA(ds, []int{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	var q core.Object = ds.Objects()[42]
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := idx.KNNSearch(q, 10); err != nil {
			panic(err)
		}
	})
	if allocs > laesaKNNAllocBudget {
		t.Fatalf("LAESA.KNNSearch allocated %.1f times per query; budget is %d", allocs, laesaKNNAllocBudget)
	}
}

// TestLAESAFlatKNNHotLoopZeroAllocs is the steady-state witness of the
// flat kernel path: with the scratch pool warm, one kNN scan — query-
// pivot batch, column sweep, flat verification — performs zero
// allocations. Only assembling the answer slice (Result) allocates, and
// it stays outside the measured loop. The loop's callees carry
// //metriclint:noalloc, so a regression fails `make lint` too.
func TestLAESAFlatKNNHotLoopZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	ds := testutil.VectorDataset(500, 4, 100, core.L2{}, 7)
	idx, err := NewLAESA(ds, []int{1, 2, 3, 4, 5})
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
