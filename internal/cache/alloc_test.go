package cache

import (
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/testutil"
)

// TestHitPathAllocs is the runtime witness for the noalloc annotations
// on the cache hit path: digesting the query and probing the shard must
// not allocate at all, and a Get on a resident entry spends exactly one
// allocation — the defensive copy of the answer handed to the caller.
func TestHitPathAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	c := New(Options{})
	// Held as the interface type: converting a Vector to core.Object at
	// each probe would itself box and charge the measurement one alloc.
	var q core.Object = core.Vector{1.5, -2.25, 3.125, 4}
	const (
		radius = 0.5
		epoch  = 7
	)
	k := RangeKey(q, radius, "")
	if _, _, err := c.Do(k, epoch, func() (Answer, uint64, error) {
		return Answer{IDs: []int{3, 5, 8}}, epoch, nil
	}); err != nil {
		t.Fatal(err)
	}

	s := slotOf(k)
	misses := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if c.lookup(s, k, epoch) == nil {
			misses++
		}
	})
	if misses > 0 {
		t.Fatalf("lookup missed %d times on a resident entry", misses)
	}
	if allocs != 0 {
		t.Fatalf("digestless hit probe allocated %.1f times; want 0", allocs)
	}

	allocs = testing.AllocsPerRun(1000, func() {
		digest(k)
	})
	if allocs != 0 {
		t.Fatalf("digest allocated %.1f times; want 0", allocs)
	}

	hits := 0
	allocs = testing.AllocsPerRun(1000, func() {
		if a, ok := c.Get(k, epoch); ok && len(a.IDs) == 3 {
			hits++
		}
	})
	if hits != 1001 {
		t.Fatalf("Get hit %d of 1001 probes on a resident entry", hits)
	}
	if allocs != 1 {
		t.Fatalf("Get spent %.1f allocations per hit; want exactly 1 (the answer copy)", allocs)
	}
}
