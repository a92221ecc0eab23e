package core_test

import (
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/testutil"
)

// TestKNNHeapPushAllocs is the runtime witness for the noalloc
// annotations on KNNHeap: Push runs once per surviving candidate in
// every kNN search, and must not allocate — neither while filling (all
// storage is reserved by NewKNNHeap) nor while replacing the top.
func TestKNNHeapPushAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	h := core.NewKNNHeap(16)
	id := 0
	allocs := testing.AllocsPerRun(1000, func() {
		// Distances cycle so the heap keeps both inserting (while
		// filling) and replacing the top (when full).
		h.Push(id, float64(id%97))
		id++
	})
	if allocs != 0 {
		t.Fatalf("KNNHeap.Push allocated %.1f times per call; want 0", allocs)
	}
	if h.Len() != 16 {
		t.Fatalf("heap retained %d candidates; want 16", h.Len())
	}
}

// TestAttrRowAllocs is the runtime witness for the noalloc annotations
// on the attribute-row read path: fetching a slot's row from the
// dataset, looking fields up and walking them (tags included) allocate
// nothing.
func TestAttrRowAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	ds := testutil.VectorDataset(64, 2, 10, core.L2{}, 1)
	testutil.AttachTestAttrs(t, ds, 3)
	var sink int
	allocs := testing.AllocsPerRun(1000, func() {
		for id := range ds.Len() {
			row := ds.AttrRow(id)
			if f, ok := row.Lookup("score"); ok {
				if x, numeric := f.Numeric(); numeric && x > 50 {
					sink++
				}
			}
			if f, ok := row.Lookup("tags"); ok && f.HasTag("hot") {
				sink++
			}
			it := row.Fields()
			for f, ok := it.Next(); ok; f, ok = it.Next() {
				sink += len(f.Key())
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("attribute-row reads allocated %.1f times per pass; want 0", allocs)
	}
	_ = sink
}
