package plan

import (
	"fmt"
	"math"
	"testing"

	"metricindex/internal/core"
)

// statsFixture: 100 rows — 30 category="a", 70 category="b"; the first
// 50 rows level=1, the rest level=2; every row x=i+1 (1..100); the
// first 20 rows carry tag "hot".
func statsFixture() *Stats {
	st := NewStats()
	for i := 0; i < 100; i++ {
		bag := core.Attrs{
			"level": core.IntValue(int64(1 + i/50)),
			"x":     core.IntValue(int64(i + 1)),
		}
		if i < 30 {
			bag["category"] = core.StringValue("a")
		} else {
			bag["category"] = core.StringValue("b")
		}
		if i < 20 {
			bag["tags"] = core.TagsValue("hot")
		}
		st.Observe(rowOf(bag))
	}
	return st
}

// rowOf encodes a test bag into its canonical row.
func rowOf(a core.Attrs) core.AttrRow {
	row, err := core.EncodeAttrs(nil, a)
	if err != nil {
		panic(err)
	}
	return row
}

func sel(t *testing.T, st *Stats, src string) float64 {
	t.Helper()
	return st.Selectivity(mustParse(t, src))
}

func TestSelectivityDiscrete(t *testing.T) {
	st := statsFixture()
	cases := []struct {
		src  string
		want float64
	}{
		{`category = "a"`, 0.3}, // exact-count table, exact answer
		{`category != "a"`, 0.7},
		{`category IN ("a", "b")`, 1.0},
		{`level = 1`, 0.5},
		{`tags = "hot"`, 0.2},
		{`nosuch = 1`, 0},
		{`category = "zzz"`, 0},
		{`category = "a" AND level = 1`, 0.15},     // product
		{`category = "a" OR level = 1`, 0.65},      // inclusion-exclusion
		{`category = "a" OR category = "b"`, 0.79}, // 1 - 0.7*0.3: independence, not union
	}
	for _, c := range cases {
		if got := sel(t, st, c.src); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Selectivity(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestSelectivityRange(t *testing.T) {
	st := statsFixture() // x uniform over 1..100
	cases := []struct {
		src       string
		want, tol float64
	}{
		{`x < 50`, 0.49, 0.15}, // octave interpolation is coarse
		{`x > 50`, 0.50, 0.15},
		{`x >= 1`, 1.0, 0.05},
		{`x < 1`, 0.0, 0.05},
		{`x > 1000`, 0.0, 0.01},
		{`category < "b"`, 0.5, 1e-9}, // string range: flat half-of-field default
	}
	for _, c := range cases {
		if got := sel(t, st, c.src); math.Abs(got-c.want) > c.tol {
			t.Errorf("Selectivity(%q) = %v, want %v ± %v", c.src, got, c.want, c.tol)
		}
	}
}

func TestSelectivityEmptyStats(t *testing.T) {
	if got := sel(t, NewStats(), `a = 1`); got != 0 {
		t.Fatalf("empty stats selectivity = %v, want 0", got)
	}
}

// TestSelectivityOverflowPool: past maxDistinct distinct values the
// exact table stops growing and equality estimates come from the
// overflow pool — approximate but nonzero and small.
func TestSelectivityOverflowPool(t *testing.T) {
	st := NewStats()
	n := maxDistinct + 200
	for i := 0; i < n; i++ {
		st.Observe(rowOf(core.Attrs{"u": core.StringValue(fmt.Sprintf("val-%d", i))}))
	}
	if got := st.ValueRows("u", fmt.Sprintf("val-%d", n-1)); got != 0 {
		t.Fatalf("pooled value reported %d exact rows, want 0", got)
	}
	got := sel(t, st, fmt.Sprintf(`u = "val-%d"`, n-1))
	if got <= 0 || got > 0.05 {
		t.Fatalf("overflow-pool selectivity = %v, want small positive", got)
	}
}

// TestObserveRemoveInverse: removing every observed bag restores all
// counters to zero — rows, per-field counts, exact tables, and every
// histogram bucket. This exactness (bucketOf is a pure function of the
// value) is what the epoch churn test leans on.
func TestObserveRemoveInverse(t *testing.T) {
	bags := []core.Attrs{
		nil,
		{},
		{"a": core.IntValue(7), "b": core.StringValue("x")},
		{"a": core.FloatValue(-0.001), "t": core.TagsValue("p", "q")},
		{"a": core.FloatValue(math.NaN()), "b": core.StringValue("x")},
		{"a": core.IntValue(0), "t": core.TagsValue()},
	}
	st := NewStats()
	for _, b := range bags {
		st.Observe(rowOf(b))
	}
	for _, b := range bags {
		st.Remove(rowOf(b))
	}
	if st.Rows() != 0 {
		t.Fatalf("Rows = %d after full removal, want 0", st.Rows())
	}
	for _, f := range []string{"a", "b", "t"} {
		if n := st.FieldRows(f); n != 0 {
			t.Errorf("FieldRows(%q) = %d, want 0", f, n)
		}
		for i, c := range st.HistogramCounts(f) {
			if c != 0 {
				t.Errorf("HistogramCounts(%q)[%d] = %d, want 0", f, i, c)
			}
		}
	}
	if n := st.ValueRows("b", "x"); n != 0 {
		t.Errorf("ValueRows(b, x) = %d, want 0", n)
	}
}

func TestChoose(t *testing.T) {
	cases := []struct {
		sel     float64
		n       int
		capable bool
		want    Strategy
	}{
		{0.01, 100000, true, StrategyPre},  // rare: linear pre-filter scan
		{0.01, 100000, false, StrategyPre}, // capability irrelevant for pre
		{0.2, 500, true, StrategyPre},      // 100 expected matches ≤ preMaxMatches
		{0.2, 100000, true, StrategyProbe}, // mid selectivity, pushdown available
		{0.2, 100000, false, StrategyPost}, // mid selectivity, no pushdown
		{0.5, 100000, true, StrategyPost},  // half the data matches: filter after
		{0.9, 100000, false, StrategyPost},
		{0.05, 100000, false, StrategyPre}, // boundary: sel == preMaxSel
	}
	for _, c := range cases {
		if got := Choose(c.sel, c.n, c.capable); got != c.want {
			t.Errorf("Choose(%v, %d, %v) = %v, want %v", c.sel, c.n, c.capable, got, c.want)
		}
	}
}

func TestStrategyString(t *testing.T) {
	for st, want := range map[Strategy]string{
		StrategyPre: "pre", StrategyProbe: "probe", StrategyPost: "post",
	} {
		if got := st.String(); got != want {
			t.Errorf("Strategy(%d).String() = %q, want %q", st, got, want)
		}
	}
}

// TestObserveKnownValuesNoAlloc is the runtime witness behind the
// //metriclint:noalloc markers on the estimator's lookup path: once a
// bag's fields and values are in the tables, observing and removing it
// again allocates nothing — numbers are keyed through a stack buffer,
// and strings and tags are looked up by their encoded bytes. Only a
// value new to a table allocates.
func TestObserveKnownValuesNoAlloc(t *testing.T) {
	st := NewStats()
	row := rowOf(sampleBag())
	st.Observe(row)
	if avg := testing.AllocsPerRun(1000, func() {
		st.Observe(row)
		st.Remove(row)
	}); avg != 0 {
		t.Fatalf("re-observing known values allocates %.1f times per run, want 0", avg)
	}
	if st.Rows() != 1 || st.ValueRows("level", "7") != 1 || st.ValueRows("tags", "sale") != 1 {
		t.Fatalf("tables drifted: rows %d, level=7 %d, tags=sale %d",
			st.Rows(), st.ValueRows("level", "7"), st.ValueRows("tags", "sale"))
	}
}
