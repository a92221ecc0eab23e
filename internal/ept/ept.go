// Package ept implements the Extreme Pivot Table of [24] (§3.2) and the
// paper's improved EPT*, which replaces the group-based extreme-pivot
// assignment with the PSA pivot-selection algorithm (Algorithm 1). Both
// are in-memory tables like LAESA, but each object carries its *own* l
// pivots, so every row stores (pivot id, distance) pairs (Fig 5).
package ept

import (
	"fmt"
	"sort"

	"metricindex/internal/core"
	"metricindex/internal/pivot"
)

// verifyChunk is the candidate batch size of the chunked DistanceMany
// verification path.
const verifyChunk = 64

// knnBlockMin and knnBlock bound the row-block sizes of the staged kNN
// scan (see the LAESA twin): each block is swept at the radius current
// when it starts, so pruning tightens block by block and the recheck
// stays cache-resident.
// Blocks start small and double, so the loose just-seeded radius only
// governs short sweeps.
const (
	knnBlockMin = 128
	knnBlock    = 1024
)

// Variant selects between the original EPT and the paper's EPT*.
type Variant int

// The two variants of §3.2.
const (
	// Original is EPT [24]: l random groups of m pivots; every object
	// takes the group member maximizing |d(o,p) − μ_p|.
	Original Variant = iota
	// Star is EPT*: per-object pivots chosen by PSA to maximize the
	// lower-bound/true-distance ratio. Much more expensive to build,
	// fewest compdists at query time (Fig 14).
	Star
)

// Options configures construction.
type Options struct {
	// L is the number of pivots per object (matches |P| of the other
	// indexes so comparisons are fair).
	L int
	// M is the EPT group size; 0 lets EstimateGroupSize pick it from
	// Equation (1) using Radius.
	M int
	// Radius feeds the group-size estimate (a typical query radius).
	Radius float64
	// Sel tunes pivot sampling.
	Sel pivot.Options
	// Workers parallelizes the per-object pivot assignment during
	// construction (the dominant cost, especially for EPT*): 0 or 1
	// builds sequentially, negative uses GOMAXPROCS, otherwise that many
	// goroutines. The resulting table is identical to a sequential build.
	Workers int
}

// EPT is the extreme pivot table index. The table is struct-of-arrays:
// column c holds, for every row, the c-th private pivot (as a dense index
// into the referenced-pivot pool) and its distance, so Lemma 1 filtering
// scans contiguous columns. A query computes its distance to the whole
// referenced pool up front through the batch kernel — replacing the old
// lazy per-pivot map memoization — then prunes via the columns and
// verifies survivors through the flat kernel (or chunked DistanceMany).
type EPT struct {
	ds      *core.Dataset
	variant Variant
	l       int

	ids   []int32     // row -> object id
	pcols [][]int32   // pcols[c][row] = dense pool index of the row's c-th pivot
	dcols [][]float64 // dcols[c][row] = distance to that pivot
	rowOf map[int]int

	// pivotVal snapshots pivot object values so queries keep working if a
	// pivot object is later deleted from the dataset.
	pivotVal map[int32]core.Object

	// The referenced-pivot pool: every pivot some row cites, densely
	// numbered in first-reference order. poolIDs maps dense index back to
	// the dataset pivot id; poolOf is the inverse.
	pool    []core.Object
	poolIDs []int32
	poolOf  map[int32]int32

	groups *pivot.Groups   // Original: assignment state for inserts
	psa    *pivot.PSAState // Star: assignment state for inserts

	flat     *core.FlatVecs // coordinate mirror; nil off the flat path
	noMirror bool
	kern     core.PreKernel
	hasKern  bool
	scratch  core.ScratchPool
}

// New builds an EPT or EPT* over all live objects.
func New(ds *core.Dataset, variant Variant, opts Options) (*EPT, error) {
	if opts.L <= 0 {
		return nil, fmt.Errorf("ept: non-positive L %d", opts.L)
	}
	e := newEmpty(ds, variant, opts.L)
	sp := ds.Space()
	// assign computes one object's row; it must be safe to call
	// concurrently, since construction fans the per-object assignments out
	// across Options.Workers goroutines (§6.2: objects are independent).
	var assign func(o core.Object) ([]int32, []float64)
	switch variant {
	case Original:
		m := opts.M
		if m <= 0 {
			r := opts.Radius
			if r <= 0 {
				r = 1
			}
			m = pivot.EstimateGroupSize(ds, opts.L, r, opts.Sel)
		}
		g, err := pivot.SelectGroups(ds, opts.L, m, opts.Sel)
		if err != nil {
			return nil, err
		}
		e.groups = g
		for gi := range g.IDs {
			for j := range g.IDs[gi] {
				e.pivotVal[g.IDs[gi][j]] = g.Vals[gi][j]
			}
		}
		assign = func(o core.Object) ([]int32, []float64) {
			return g.AssignExtreme(sp, o)
		}
	case Star:
		st, err := pivot.NewPSAState(ds, opts.Sel)
		if err != nil {
			return nil, err
		}
		e.l = min(e.l, len(st.CandVals))
		e.pcols = e.pcols[:e.l]
		e.dcols = e.dcols[:e.l]
		e.psa = st
		for ci := range st.CandIDs {
			e.pivotVal[st.CandIDs[ci]] = st.CandVals[ci]
		}
		assign = func(o core.Object) ([]int32, []float64) {
			return st.Assign(sp, o, e.l)
		}
	default:
		return nil, fmt.Errorf("ept: unknown variant %d", variant)
	}
	ids := ds.LiveIDs()
	pvs := make([][]int32, len(ids))
	dvs := make([][]float64, len(ids))
	core.ParallelFor(len(ids), opts.Workers, func(start, end int) {
		for i := start; i < end; i++ {
			pvs[i], dvs[i] = assign(ds.Object(ids[i]))
		}
	})
	// Rows are appended in LiveIDs order regardless of worker count, so the
	// table is identical to a sequential build.
	for i, id := range ids {
		e.appendRow(id, pvs[i], dvs[i])
	}
	return e, nil
}

// newEmpty prepares an EPT shell shared by New and the snapshot loader.
func newEmpty(ds *core.Dataset, variant Variant, l int) *EPT {
	e := &EPT{
		ds:       ds,
		variant:  variant,
		l:        l,
		rowOf:    make(map[int]int),
		pivotVal: make(map[int32]core.Object),
		poolOf:   make(map[int32]int32),
		pcols:    make([][]int32, l),
		dcols:    make([][]float64, l),
	}
	e.kern, e.hasKern = core.PreKernelFor(ds.Space().Metric())
	return e
}

// poolIdx returns the dense pool index of a pivot id, admitting it to
// the pool on first reference.
func (e *EPT) poolIdx(p int32) int32 {
	if i, ok := e.poolOf[p]; ok {
		return i
	}
	i := int32(len(e.pool))
	e.pool = append(e.pool, e.pivotVal[p])
	e.poolIDs = append(e.poolIDs, p)
	e.poolOf[p] = i
	return i
}

// appendRow adds one object's row across the columns; short assignment
// rows pad with their last pivot (defensively, as the row-major layout
// did).
func (e *EPT) appendRow(id int, pv []int32, dv []float64) {
	row := len(e.ids)
	e.rowOf[id] = row
	e.ids = append(e.ids, int32(id))
	for c := 0; c < e.l; c++ {
		j := c
		if j >= len(pv) {
			j = len(pv) - 1
		}
		e.pcols[c] = append(e.pcols[c], e.poolIdx(pv[j]))
		e.dcols[c] = append(e.dcols[c], dv[j])
	}
	e.mirrorRow(row, e.ds.Object(id))
}

// mirrorRow appends the object to the coordinate mirror, arming it on
// row 0 and dropping it permanently on the first object that does not
// fit (see the LAESA twin).
func (e *EPT) mirrorRow(row int, o core.Object) {
	if e.noMirror || !e.hasKern {
		return
	}
	if o == nil {
		e.flat = nil
		e.noMirror = true
		return
	}
	if e.flat == nil {
		if row != 0 {
			e.noMirror = true
			return
		}
		if e.flat = core.NewFlatVecs(o); e.flat == nil {
			e.noMirror = true
			return
		}
	}
	if !e.flat.Append(o) {
		e.flat = nil
		e.noMirror = true
	}
}

// Name returns "EPT" or "EPT*".
func (e *EPT) Name() string {
	if e.variant == Star {
		return "EPT*"
	}
	return "EPT"
}

// Len returns the number of indexed objects.
func (e *EPT) Len() int { return len(e.ids) }

// useFlat reports whether the flat verification path is armed.
func (e *EPT) useFlat() bool {
	return e.hasKern && e.flat != nil && e.flat.Rows() == len(e.ids)
}

// flatQuery widens q into scratch for the flat verification path; ok is
// false when the path is not armed or q does not fit the mirror (the
// query then verifies through Objects).
func (e *EPT) flatQuery(q core.Object, sc *core.Scratch) (q64 []float64, q32 []float32, ok bool) {
	if !e.useFlat() {
		return nil, nil, false
	}
	return e.flat.QueryCoords(q, sc)
}

// queryPrep draws scratch, sizes the survivor and chunk buffers, and
// computes the query's distance to every pooled pivot through the batch
// kernel (the m·l term of the query cost). Per-row pruning happens in
// the search routines via the indexed column sweep.
func (e *EPT) queryPrep(q core.Object) *core.Scratch {
	sc := e.scratch.Get()
	qd := sc.GrowQD(len(e.pool))
	sc.GrowSur(len(e.ids))
	sc.GrowChunk(verifyChunk)
	e.ds.Space().DistanceMany(q, e.pool, qd)
	return sc
}

// RangeSearch answers MRQ(q, r) by a filtered table scan (same procedure
// as LAESA, §3.2): an indexed column sweep applies Lemma 1 per private
// pivot set, then survivors are verified.
func (e *EPT) RangeSearch(q core.Object, r float64) ([]int, error) {
	return e.RangeSearchAccept(q, r, nil)
}

// RangeSearchAccept is RangeSearch restricted to accepted ids
// (core.AcceptSearcher, the EPT twin of the LAESA probe filter); a nil
// accept accepts every id. The accept test runs on every row that
// survives the indexed column sweep, before its distance is computed, so
// rejected candidates cost zero compdists while Lemma 1 pruning is
// untouched.
func (e *EPT) RangeSearchAccept(q core.Object, r float64, accept core.Accept) ([]int, error) {
	sc := e.queryPrep(q)
	sur := core.SurviveColumnsIndexed(sc.Sur, sc.QD, e.pcols, e.dcols, 0, len(e.ids), r)
	var res []int
	if q64, q32, ok := e.flatQuery(q, sc); ok {
		res = e.rangeFlat(q64, q32, sur, r, accept)
	} else {
		res = e.rangeObjs(q, sc, sur, r, accept)
	}
	e.scratch.Put(sc)
	sort.Ints(res)
	return res, nil
}

// rangeFlat verifies the accepted surviving rows through the flat
// kernel.
func (e *EPT) rangeFlat(q64 []float64, q32 []float32, sur []int32, r float64, accept core.Accept) []int {
	var res []int
	ndist := 0
	for _, row := range sur {
		id := int(e.ids[row])
		if accept != nil && !accept(id) {
			continue
		}
		pre := e.flat.Pre(&e.kern, q64, q32, int(row))
		ndist++
		if e.kern.Exceeds(pre, r) {
			continue
		}
		if e.kern.Finish(pre) <= r {
			res = append(res, id)
		}
	}
	e.ds.Space().CountDistances(ndist)
	return res
}

// rangeObjs verifies the accepted surviving rows through DistanceMany in
// chunks.
func (e *EPT) rangeObjs(q core.Object, sc *core.Scratch, sur []int32, r float64, accept core.Accept) []int {
	objs := e.ds.Objects()
	sp := e.ds.Space()
	var res []int
	m := 0
	for _, row := range sur {
		id := e.ids[row]
		if accept != nil && !accept(int(id)) {
			continue
		}
		sc.IDs[m] = id
		sc.Objs[m] = objs[id]
		m++
		if m < len(sc.IDs) {
			continue
		}
		sp.DistanceMany(q, sc.Objs[:m], sc.Out[:m])
		for j := 0; j < m; j++ {
			if sc.Out[j] <= r {
				res = append(res, int(sc.IDs[j]))
			}
		}
		m = 0
	}
	if m > 0 {
		sp.DistanceMany(q, sc.Objs[:m], sc.Out[:m])
		for j := 0; j < m; j++ {
			if sc.Out[j] <= r {
				res = append(res, int(sc.IDs[j]))
			}
		}
	}
	return res
}

// KNNSearch answers MkNNQ(q, k) with an infinite start radius tightened by
// verification, in storage order.
func (e *EPT) KNNSearch(q core.Object, k int) ([]core.Neighbor, error) {
	return e.KNNSearchAccept(q, k, nil)
}

// KNNSearchAccept is KNNSearch over accepted ids only
// (core.AcceptSearcher); a nil accept accepts every id. A filtered scan
// runs the staged block sweep without the seed prefix (see knnSeed).
func (e *EPT) KNNSearchAccept(q core.Object, k int, accept core.Accept) ([]core.Neighbor, error) {
	if k <= 0 {
		return nil, nil
	}
	sc := e.queryPrep(q)
	h := sc.Heap(k)
	if q64, q32, ok := e.flatQuery(q, sc); ok {
		e.knnFlat(q64, q32, sc, h, accept)
	} else {
		e.knnObjs(q, sc, h, accept)
	}
	res := h.Result()
	e.scratch.Put(sc)
	return res, nil
}

// knnSeed bounds the heap-seeding prefix: the first min(k, n) rows are
// verified unconditionally (the scalar scan cannot prune them either —
// the radius stays infinite until the k-th push). A filtered scan has
// none — a rejected seed row must not cost a distance.
func (e *EPT) knnSeed(k int, accept core.Accept) int {
	if accept != nil {
		return 0
	}
	return min(k, len(e.ids))
}

// knnFlat is the zero-allocation kNN hot loop (see the LAESA twin for
// the staging and equivalence argument): verify the seed prefix, sweep
// the remaining rows at the seeded radius, then drop rejected ids and
// re-apply Lemma 1 per survivor with the fresh radius before verifying
// through the flat kernel.
//
//metriclint:noalloc
func (e *EPT) knnFlat(q64 []float64, q32 []float32, sc *core.Scratch, h *core.KNNHeap, accept core.Accept) {
	seed := e.knnSeed(h.K(), accept)
	for row := 0; row < seed; row++ {
		pre := e.flat.Pre(&e.kern, q64, q32, row)
		h.Push(int(e.ids[row]), e.kern.Finish(pre))
	}
	ndist := seed
	for base, blk := seed, knnBlockMin; base < len(e.ids); base, blk = base+blk, min(blk*2, knnBlock) {
		end := base + blk
		if end > len(e.ids) {
			end = len(e.ids)
		}
		sur := core.SurviveColumnsIndexed(sc.Sur, sc.QD, e.pcols, e.dcols, base, end, h.Radius())
		for _, row := range sur {
			if accept != nil && !accept(int(e.ids[row])) {
				continue
			}
			r := h.Radius()
			if core.PruneRowIndexedAt(sc.QD, e.pcols, e.dcols, int(row), r) {
				continue
			}
			pre := e.flat.Pre(&e.kern, q64, q32, int(row))
			ndist++
			if e.kern.Exceeds(pre, r) {
				continue
			}
			h.Push(int(e.ids[row]), e.kern.Finish(pre))
		}
	}
	e.ds.Space().CountDistances(ndist)
}

// knnObjs is the Object fallback: the same staged scan with candidates
// gathered into chunks verified through DistanceMany; the chunk-stale
// radius only admits candidates the heap rejects, so answers match the
// per-candidate scan.
//
//metriclint:noalloc
func (e *EPT) knnObjs(q core.Object, sc *core.Scratch, h *core.KNNHeap, accept core.Accept) {
	objs := e.ds.Objects()
	seed := e.knnSeed(h.K(), accept)
	m := 0
	for row := 0; row < seed; row++ {
		id := e.ids[row]
		sc.IDs[m] = id
		sc.Objs[m] = objs[id]
		m++
		if m == len(sc.IDs) {
			e.flushKNN(q, sc, m, h)
			m = 0
		}
	}
	if m > 0 {
		e.flushKNN(q, sc, m, h)
		m = 0
	}
	for base, blk := seed, knnBlockMin; base < len(e.ids); base, blk = base+blk, min(blk*2, knnBlock) {
		end := base + blk
		if end > len(e.ids) {
			end = len(e.ids)
		}
		sur := core.SurviveColumnsIndexed(sc.Sur, sc.QD, e.pcols, e.dcols, base, end, h.Radius())
		for _, row := range sur {
			id := e.ids[row]
			if accept != nil && !accept(int(id)) {
				continue
			}
			if core.PruneRowIndexedAt(sc.QD, e.pcols, e.dcols, int(row), h.Radius()) {
				continue
			}
			sc.IDs[m] = id
			sc.Objs[m] = objs[id]
			m++
			if m == len(sc.IDs) {
				e.flushKNN(q, sc, m, h)
				m = 0
			}
		}
	}
	if m > 0 {
		e.flushKNN(q, sc, m, h)
	}
}

//metriclint:noalloc
func (e *EPT) flushKNN(q core.Object, sc *core.Scratch, m int, h *core.KNNHeap) {
	e.ds.Space().DistanceMany(q, sc.Objs[:m], sc.Out[:m])
	for j := 0; j < m; j++ {
		h.Push(int(sc.IDs[j]), sc.Out[j])
	}
}

// Insert assigns pivots to the new object (group-extreme for EPT, PSA for
// EPT*) and appends its row. The assignment distances make EPT updates
// expensive, as Table 6 reports.
func (e *EPT) Insert(id int) error {
	if _, dup := e.rowOf[id]; dup {
		return fmt.Errorf("ept: duplicate insert of %d", id)
	}
	o := e.ds.Object(id)
	if o == nil {
		return fmt.Errorf("ept: insert of deleted or out-of-range id %d", id)
	}
	var pv []int32
	var dv []float64
	if e.variant == Original {
		// The original EPT re-estimates the group μ values before
		// assigning pivots to the new object — the dominant update cost
		// of Table 6.
		e.groups.ReestimateMu(e.ds, pivot.Options{Seed: int64(id)})
		pv, dv = e.groups.AssignExtreme(e.ds.Space(), o)
	} else {
		pv, dv = e.psa.Assign(e.ds.Space(), o, e.l)
	}
	e.appendRow(id, pv, dv)
	return nil
}

// Delete locates the row by sequential scan (as §6.3 describes) and
// removes it by a per-column swap with the last row.
func (e *EPT) Delete(id int) error {
	row := -1
	for i, rid := range e.ids {
		if int(rid) == id {
			row = i
			break
		}
	}
	if row < 0 {
		return fmt.Errorf("ept: delete of unindexed object %d", id)
	}
	last := len(e.ids) - 1
	lastID := e.ids[last]
	e.ids[row] = lastID
	e.ids = e.ids[:last]
	for c := 0; c < e.l; c++ {
		pcol := e.pcols[c]
		pcol[row] = pcol[last]
		e.pcols[c] = pcol[:last]
		dcol := e.dcols[c]
		dcol[row] = dcol[last]
		e.dcols[c] = dcol[:last]
	}
	if e.flat != nil {
		e.flat.SwapDelete(row)
	}
	e.rowOf[int(lastID)] = row
	delete(e.rowOf, id)
	return nil
}

// PageAccesses returns 0: EPT is an in-memory index.
func (e *EPT) PageAccesses() int64 { return 0 }

// ResetStats is a no-op.
func (e *EPT) ResetStats() {}

// MemBytes reports the table size: EPT stores a pivot reference next to
// every distance, so it is larger than LAESA's table (Table 4), plus the
// coordinate mirror when armed.
func (e *EPT) MemBytes() int64 {
	n := int64(len(e.ids)) * 4
	for c := 0; c < e.l; c++ {
		n += int64(len(e.pcols[c]))*4 + int64(len(e.dcols[c]))*8
	}
	if e.flat != nil {
		n += e.flat.MemBytes()
	}
	return n
}

// DiskBytes returns 0.
func (e *EPT) DiskBytes() int64 { return 0 }
