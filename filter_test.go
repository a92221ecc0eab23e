package metricindex_test

import (
	"testing"

	"metricindex"
)

// TestFacadeFilteredSearch drives the public filtered-search surface
// end to end: attach bags, compile a predicate, search through the
// live front, and check the answer against a hand filter of the
// unfiltered result.
func TestFacadeFilteredSearch(t *testing.T) {
	gen, err := metricindex.GenerateDataset(metricindex.DatasetLA, 500, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	ds := gen.Dataset
	for i, id := range ds.LiveIDs() {
		ds.SetAttrs(id, metricindex.Attrs{
			"parity": metricindex.StringValue([]string{"even", "odd"}[i%2]),
			"rank":   metricindex.IntValue(int64(i)),
		})
	}
	pivots, err := metricindex.SelectPivots(ds, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := metricindex.NewLAESA(ds, pivots)
	if err != nil {
		t.Fatal(err)
	}
	live := metricindex.NewLive(ds, idx)

	pred, err := metricindex.ParseFilter(`parity = "even" AND rank < 400`)
	if err != nil {
		t.Fatal(err)
	}
	q := gen.Queries[0]
	r := gen.MaxDistance / 8

	ans, err := live.Search(metricindex.Query{Object: q, Kind: metricindex.KindRange, R: r, Filter: pred})
	if err != nil {
		t.Fatal(err)
	}
	ids, st := ans.IDs, ans.Strategy
	if st != metricindex.PlanPre && st != metricindex.PlanProbe && st != metricindex.PlanPost {
		t.Fatalf("unexpected strategy %v", st)
	}
	plain, err := live.RangeSearch(q, r)
	if err != nil {
		t.Fatal(err)
	}
	want := plain[:0:0]
	for _, id := range plain {
		if pred.Eval(live.Attrs(id)) {
			want = append(want, id)
		}
	}
	if len(ids) != len(want) {
		t.Fatalf("filtered range returned %d ids, want %d", len(ids), len(want))
	}
	for i := range ids {
		if ids[i] != want[i] {
			t.Fatalf("filtered range id[%d] = %d, want %d", i, ids[i], want[i])
		}
	}

	kans, err := live.Search(metricindex.Query{Object: q, Kind: metricindex.KindKNN, K: 5, Filter: pred})
	if err != nil {
		t.Fatal(err)
	}
	nns := kans.Neighbors
	if len(nns) != 5 {
		t.Fatalf("filtered kNN returned %d neighbors, want 5", len(nns))
	}
	for _, nn := range nns {
		if !pred.Eval(live.Attrs(nn.ID)) {
			t.Fatalf("filtered kNN neighbor %d fails the predicate", nn.ID)
		}
	}
}
