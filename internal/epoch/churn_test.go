package epoch_test

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"metricindex/internal/core"
	"metricindex/internal/plan"
)

// The churn property test: the planner's selectivity estimator is
// maintained incrementally under the epoch write lock, so (a) any read
// section observes an internally consistent estimator — no negative
// counts, no field outnumbering its rows — and (b) once writers
// quiesce, the estimator is bucket-for-bucket identical to a recount of
// the final dataset (bucketOf is a pure function of the value, so
// Remove inverts Observe exactly; incremental maintenance can never
// drift from a from-scratch rebuild).

var churnKinds = []string{"red", "green", "blue", "violet"}

func churnBag(rng *rand.Rand) core.Attrs {
	bag := core.Attrs{
		"kind": core.StringValue(churnKinds[rng.Intn(len(churnKinds))]),
		"size": core.IntValue(int64(rng.Intn(64))),
		"w":    core.FloatValue(rng.NormFloat64() * 10),
	}
	if rng.Intn(3) == 0 {
		bag["tags"] = core.TagsValue("hot")
	}
	return bag
}

func churnObject(rng *rand.Rand) core.Object {
	v := make(core.Vector, 4)
	for d := range v {
		v[d] = rng.Float64() * 100
	}
	return v
}

func TestPlanStatsConsistentUnderChurn(t *testing.T) {
	l := newLive(t, "LAESA", builders()["LAESA"], 300)

	// Attach bags to the seed objects so deletions exercise the
	// estimator's Remove path from the start.
	var initial []int
	l.View(func(ds *core.Dataset, _ core.Index) { initial = append(initial, ds.LiveIDs()...) })
	seedRng := rand.New(rand.NewSource(41))
	for _, id := range initial {
		if _, err := l.SetAttrsAt(id, churnBag(seedRng)); err != nil {
			t.Fatalf("SetAttrsAt(%d): %v", id, err)
		}
	}

	statFields := []string{"kind", "size", "w", "tags"}
	probe := mustParsePlan(t, `kind = "red" AND size < 32`)

	var (
		wg     sync.WaitGroup
		stop   atomic.Bool
		failed atomic.Pointer[error]
	)
	fail := func(err error) {
		e := err
		failed.CompareAndSwap(nil, &e)
		stop.Store(true)
	}

	// Writers own disjoint id pools, so no two ever race to remove the
	// same object; inserts, deletes, and in-place bag replacement all
	// interleave freely.
	const writers = 4
	for g := 0; g < writers; g++ {
		var owned []int
		for i := g; i < len(initial); i += writers {
			owned = append(owned, initial[i])
		}
		wg.Add(1)
		go func(g int, owned []int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			for !stop.Load() {
				switch op := rng.Intn(3); {
				case op == 0 || len(owned) == 0:
					id, _, err := l.AddAttrsAt(churnObject(rng), churnBag(rng))
					if err != nil {
						fail(fmt.Errorf("AddAttrsAt: %w", err))
						return
					}
					owned = append(owned, id)
				case op == 1 && len(owned) > 8:
					i := rng.Intn(len(owned))
					if _, err := l.RemoveAt(owned[i]); err != nil {
						fail(fmt.Errorf("RemoveAt(%d): %w", owned[i], err))
						return
					}
					owned[i] = owned[len(owned)-1]
					owned = owned[:len(owned)-1]
				default:
					id := owned[rng.Intn(len(owned))]
					if _, err := l.SetAttrsAt(id, churnBag(rng)); err != nil {
						fail(fmt.Errorf("SetAttrsAt(%d): %w", id, err))
						return
					}
				}
			}
		}(g, owned)
	}

	// Samplers: each PlanStats call is one epoch read section; whatever
	// instant it lands on, the estimator must be internally consistent.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				l.PlanStats(func(st *plan.Stats) {
					rows := st.Rows()
					if rows < 0 {
						fail(fmt.Errorf("sampled Rows = %d", rows))
						return
					}
					for _, f := range statFields {
						if n := st.FieldRows(f); n < 0 || n > rows {
							fail(fmt.Errorf("sampled FieldRows(%q) = %d with %d rows", f, n, rows))
							return
						}
						for i, c := range st.HistogramCounts(f) {
							if c < 0 {
								fail(fmt.Errorf("sampled HistogramCounts(%q)[%d] = %d", f, i, c))
								return
							}
						}
					}
					if s := st.Selectivity(probe); s < 0 || s > 1 {
						fail(fmt.Errorf("sampled Selectivity = %v", s))
					}
				})
			}
		}()
	}

	time.Sleep(150 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if e := failed.Load(); e != nil {
		t.Fatal(*e)
	}

	// Post-hoc exactness: recount the quiesced dataset from scratch and
	// demand equality — rows, per-field counts, every histogram bucket,
	// and the exact-count tables for every discrete value in play.
	want := plan.NewStats()
	l.View(func(ds *core.Dataset, _ core.Index) {
		for _, id := range ds.LiveIDs() {
			want.Observe(ds.AttrRow(id))
		}
	})
	l.PlanStats(func(st *plan.Stats) {
		if st.Rows() != want.Rows() {
			t.Errorf("Rows = %d, recount = %d", st.Rows(), want.Rows())
		}
		for _, f := range statFields {
			if got, w := st.FieldRows(f), want.FieldRows(f); got != w {
				t.Errorf("FieldRows(%q) = %d, recount = %d", f, got, w)
			}
			if !histEqual(st.HistogramCounts(f), want.HistogramCounts(f)) {
				t.Errorf("HistogramCounts(%q) diverged from recount:\n live: %v\n want: %v",
					f, st.HistogramCounts(f), want.HistogramCounts(f))
			}
		}
		for _, k := range churnKinds {
			if got, w := st.ValueRows("kind", k), want.ValueRows("kind", k); got != w {
				t.Errorf("ValueRows(kind, %q) = %d, recount = %d", k, got, w)
			}
		}
		if got, w := st.ValueRows("tags", "hot"), want.ValueRows("tags", "hot"); got != w {
			t.Errorf("ValueRows(tags, hot) = %d, recount = %d", got, w)
		}
	})
}

// histEqual compares bucket vectors, treating a nil histogram (field
// never seen) as all-zero.
func histEqual(a, b []int) bool {
	if len(a) != len(b) {
		for _, c := range a {
			if c != 0 {
				return false
			}
		}
		for _, c := range b {
			if c != 0 {
				return false
			}
		}
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func mustParsePlan(t *testing.T, src string) *plan.Predicate {
	t.Helper()
	p, err := plan.Parse(src)
	if err != nil {
		t.Fatalf("plan.Parse(%q): %v", src, err)
	}
	return p
}
