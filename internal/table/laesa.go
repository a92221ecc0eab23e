// Package table implements the pivot-based table indexes of paper §3:
// AESA (the O(n²) theoretical baseline) and LAESA (the linear pivot
// table). Both are main-memory structures; their storage is a flat
// distance table scanned by every query with Lemma 1 filtering.
package table

import (
	"fmt"
	"sort"

	"metricindex/internal/core"
)

// verifyChunk is the candidate batch size of the chunked DistanceMany
// verification path.
const verifyChunk = 64

// knnBlockMin and knnBlock bound the row-block sizes of the staged kNN
// scan: each block is column-swept at the radius current when the block
// starts, so the effective pruning radius tightens block by block while
// the block's columns stay cache-resident for the per-survivor recheck.
// Blocks start small — the first sweeps run at the loose just-seeded
// radius and would filter almost nothing over a long run — and double
// to knnBlock once the radius has contracted.
const (
	knnBlockMin = 128
	knnBlock    = 1024
)

// LAESA is the linear AESA of [19]: it stores d(o, p) for every object o
// and every pivot p (Fig 3). The table is struct-of-arrays — one
// contiguous distance column per pivot — so Lemma 1 filtering scans
// columns sequentially. MRQ prunes with the column lower bounds; MkNNQ
// does the same with a radius tightened by verification, visiting objects
// in storage order (which the paper notes is suboptimal but is what
// LAESA does). Query-pivot distances go through the batch kernel, and
// candidate verification runs over a flat coordinate mirror when the
// dataset is uniform vectors (falling back to chunked DistanceMany over
// Objects otherwise). Per-query buffers come from a scratch pool, so
// steady-state queries allocate nothing beyond the answer itself.
type LAESA struct {
	ds        *core.Dataset
	pivotIDs  []int
	pivotVals []core.Object  // snapshotted so pivot deletion is safe
	ids       []int32        // row -> object id
	cols      [][]float64    // cols[i][row] = d(object ids[row], pivot i)
	qcol      *core.QuantCol // quantized shadow of cols[0]; nil mid-build
	rowOf     map[int]int
	flat      *core.FlatVecs // coordinate mirror; nil off the flat path
	noMirror  bool           // mirror permanently dropped (mixed objects)
	kern      core.PreKernel
	hasKern   bool
	scratch   core.ScratchPool
}

// NewLAESA builds the index over all live objects, computing the full
// distance table through the counted space. The pivot object values are
// snapshotted, so later deletion of a pivot from the dataset does not
// invalidate the index.
func NewLAESA(ds *core.Dataset, pivots []int) (*LAESA, error) {
	t, err := newLAESAEmpty(ds, pivots)
	if err != nil {
		return nil, err
	}
	for _, id := range ds.LiveIDs() {
		if err := t.Insert(id); err != nil {
			return nil, err
		}
	}
	t.qcol = core.NewQuantCol(t.cols[0])
	return t, nil
}

// newLAESAEmpty validates the pivots and prepares an empty table (shared
// by the sequential, parallel, and snapshot-loading constructors).
func newLAESAEmpty(ds *core.Dataset, pivots []int) (*LAESA, error) {
	if len(pivots) == 0 {
		return nil, fmt.Errorf("laesa: no pivots")
	}
	t := &LAESA{ds: ds, pivotIDs: append([]int(nil), pivots...), rowOf: make(map[int]int)}
	for _, p := range pivots {
		v := ds.Object(p)
		if v == nil {
			return nil, fmt.Errorf("laesa: pivot %d is not a live object", p)
		}
		t.pivotVals = append(t.pivotVals, v)
	}
	t.cols = make([][]float64, len(t.pivotVals))
	t.kern, t.hasKern = core.PreKernelFor(ds.Space().Metric())
	return t, nil
}

// Name returns "LAESA".
func (t *LAESA) Name() string { return "LAESA" }

// Pivots returns the pivot ids used by the table.
func (t *LAESA) Pivots() []int { return t.pivotIDs }

// Len returns the number of indexed objects.
func (t *LAESA) Len() int { return len(t.ids) }

// useFlat reports whether the flat verification path is armed: a
// complete coordinate mirror plus a resolved kernel.
func (t *LAESA) useFlat() bool {
	return t.hasKern && t.flat != nil && t.flat.Rows() == len(t.ids)
}

// flatQuery widens q into scratch for the flat verification path; ok is
// false when the path is not armed or q does not fit the mirror (the
// query then verifies through Objects).
func (t *LAESA) flatQuery(q core.Object, sc *core.Scratch) (q64 []float64, q32 []float32, ok bool) {
	if !t.useFlat() {
		return nil, nil, false
	}
	return t.flat.QueryCoords(q, sc)
}

// mirrorRow appends the object of table row `row` to the coordinate
// mirror, arming it on row 0 and dropping it permanently the moment any
// object does not fit (wrong type or dimension) — queries then verify
// through Objects.
func (t *LAESA) mirrorRow(row int, o core.Object) {
	if t.noMirror || !t.hasKern {
		return
	}
	if t.flat == nil {
		if row != 0 {
			t.noMirror = true
			return
		}
		if t.flat = core.NewFlatVecs(o); t.flat == nil {
			t.noMirror = true
			return
		}
	}
	if !t.flat.Append(o) {
		t.flat = nil
		t.noMirror = true
	}
}

// queryPrep draws scratch, sizes the survivor and chunk buffers, and
// computes the query-pivot distances through the batch kernel.
func (t *LAESA) queryPrep(q core.Object) *core.Scratch {
	sc := t.scratch.Get()
	qd := sc.GrowQD(len(t.pivotVals))
	sc.GrowSur(len(t.ids))
	sc.GrowChunk(verifyChunk)
	t.ds.Space().DistanceMany(q, t.pivotVals, qd)
	return sc
}

// RangeSearch answers MRQ(q, r) by a filtered scan of the table: a
// column sweep (core.SurviveColumnsQuant — a SWAR pass over the quantized
// shadow of column 0, then exact unit-stride Lemma 1 over the
// struct-of-arrays columns) compacts the surviving rows, which are then
// verified through the flat kernel or chunked DistanceMany.
func (t *LAESA) RangeSearch(q core.Object, r float64) ([]int, error) {
	return t.RangeSearchAccept(q, r, nil)
}

// RangeSearchAccept is RangeSearch restricted to accepted ids
// (core.AcceptSearcher); a nil accept accepts every id. This is
// probe-filtered search: the accept test runs on every row that
// survives the Lemma 1 column sweep, *before* its distance is computed,
// so rejected candidates cost zero compdists while the geometric pruning
// is untouched — the answer is exactly the accepted subset of the
// unfiltered answer.
func (t *LAESA) RangeSearchAccept(q core.Object, r float64, accept core.Accept) ([]int, error) {
	sc := t.queryPrep(q)
	sur := core.SurviveColumnsQuant(sc.Sur, sc.QD, t.qcol, t.cols, 0, len(t.ids), r)
	var res []int
	if q64, q32, ok := t.flatQuery(q, sc); ok {
		res = t.rangeFlat(q64, q32, sur, r, accept)
	} else {
		res = t.rangeObjs(q, sc, sur, r, accept)
	}
	t.scratch.Put(sc)
	sortInts(res)
	return res, nil
}

// rangeFlat verifies the accepted surviving rows through the flat
// kernel: squared-space reject for clear misses (L2SqExceeds
// semantics), exact compare for the rest. One CountDistances covers the
// whole scan.
func (t *LAESA) rangeFlat(q64 []float64, q32 []float32, sur []int32, r float64, accept core.Accept) []int {
	var res []int
	ndist := 0
	for _, row := range sur {
		id := int(t.ids[row])
		if accept != nil && !accept(id) {
			continue
		}
		pre := t.flat.Pre(&t.kern, q64, q32, int(row))
		ndist++
		if t.kern.Exceeds(pre, r) {
			continue
		}
		if t.kern.Finish(pre) <= r {
			res = append(res, id)
		}
	}
	t.ds.Space().CountDistances(ndist)
	return res
}

// rangeObjs verifies the accepted surviving rows through DistanceMany in
// chunks.
func (t *LAESA) rangeObjs(q core.Object, sc *core.Scratch, sur []int32, r float64, accept core.Accept) []int {
	objs := t.ds.Objects()
	var res []int
	m := 0
	for _, row := range sur {
		id := t.ids[row]
		if accept != nil && !accept(int(id)) {
			continue
		}
		sc.IDs[m] = id
		sc.Objs[m] = objs[id]
		m++
		if m == len(sc.IDs) {
			res = flushRange(t.ds.Space(), q, sc, m, r, res)
			m = 0
		}
	}
	if m > 0 {
		res = flushRange(t.ds.Space(), q, sc, m, r, res)
	}
	return res
}

// flushRange verifies one gathered chunk against a fixed radius.
func flushRange(sp *core.Space, q core.Object, sc *core.Scratch, m int, r float64, res []int) []int {
	sp.DistanceMany(q, sc.Objs[:m], sc.Out[:m])
	for j := 0; j < m; j++ {
		if sc.Out[j] <= r {
			res = append(res, int(sc.IDs[j]))
		}
	}
	return res
}

// KNNSearch answers MkNNQ(q, k): radius starts at infinity and is
// tightened by each verified object (§2.1, second method). The scan is
// staged — seed the heap with the first k rows (the prefix the scalar
// scan verifies unconditionally while its radius is still infinite),
// column-sweep the rest at the seeded radius, then verify survivors
// with the fresh radius — and every stage reproduces the scalar scan's
// decisions exactly, so answers and compdists both match.
func (t *LAESA) KNNSearch(q core.Object, k int) ([]core.Neighbor, error) {
	return t.KNNSearchAccept(q, k, nil)
}

// KNNSearchAccept is KNNSearch over accepted ids only
// (core.AcceptSearcher); a nil accept accepts every id. A filtered scan
// has no seed prefix (see knnSeed), so its radius stays +Inf until k
// accepted candidates have been verified and tightens from there.
func (t *LAESA) KNNSearchAccept(q core.Object, k int, accept core.Accept) ([]core.Neighbor, error) {
	if k <= 0 {
		return nil, nil
	}
	sc := t.queryPrep(q)
	h := sc.Heap(k)
	if q64, q32, ok := t.flatQuery(q, sc); ok {
		t.knnFlat(q64, q32, sc, h, accept)
	} else {
		t.knnObjs(q, sc, h, accept)
	}
	res := h.Result()
	t.scratch.Put(sc)
	return res, nil
}

// knnSeed returns the seed prefix length: the rows the storage-order
// scalar scan verifies before its radius turns finite (the heap fills
// on the k-th push). A filtered scan has none — a rejected seed row must
// not cost a distance.
func (t *LAESA) knnSeed(k int, accept core.Accept) int {
	if accept != nil {
		return 0
	}
	return min(k, len(t.ids))
}

// knnFlat is the zero-allocation kNN hot loop: verify the seed prefix,
// then process the remaining rows in blocks — sweep each block's columns
// at the radius current when the block starts, drop rejected ids,
// re-apply Lemma 1 per survivor with the fresh radius
// (core.PruneRowAt), and verify through the flat kernel. Blocking
// matters twice over: the sweep radius tightens as blocks complete (a
// single whole-table sweep would run at the loose seeded radius and
// filter almost nothing), and the recheck's strided column reads land
// on rows the sweep just pulled into cache. The sweep only pre-filters
// — the per-survivor recheck makes the verified set exactly the scalar
// scan's, so answers and compdists both match the scalar build.
//
//metriclint:noalloc
func (t *LAESA) knnFlat(q64 []float64, q32 []float32, sc *core.Scratch, h *core.KNNHeap, accept core.Accept) {
	seed := t.knnSeed(h.K(), accept)
	for row := 0; row < seed; row++ {
		pre := t.flat.Pre(&t.kern, q64, q32, row)
		h.Push(int(t.ids[row]), t.kern.Finish(pre))
	}
	ndist := seed
	for base, blk := seed, knnBlockMin; base < len(t.ids); base, blk = base+blk, min(blk*2, knnBlock) {
		end := base + blk
		if end > len(t.ids) {
			end = len(t.ids)
		}
		sur := core.SurviveColumnsQuant(sc.Sur, sc.QD, t.qcol, t.cols, base, end, h.Radius())
		for _, row := range sur {
			if accept != nil && !accept(int(t.ids[row])) {
				continue
			}
			r := h.Radius()
			if core.PruneRowAt(sc.QD, t.cols, int(row), r) {
				continue
			}
			pre := t.flat.Pre(&t.kern, q64, q32, int(row))
			ndist++
			if t.kern.Exceeds(pre, r) {
				continue
			}
			h.Push(int(t.ids[row]), t.kern.Finish(pre))
		}
	}
	t.ds.Space().CountDistances(ndist)
}

// knnObjs is the Object fallback: the same staged scan with candidates
// gathered into chunks verified through DistanceMany. The pruning radius
// lags by at most one chunk, which only admits extra candidates the
// heap rejects — answers are identical to the per-candidate scan.
//
//metriclint:noalloc
func (t *LAESA) knnObjs(q core.Object, sc *core.Scratch, h *core.KNNHeap, accept core.Accept) {
	objs := t.ds.Objects()
	seed := t.knnSeed(h.K(), accept)
	m := 0
	for row := 0; row < seed; row++ {
		id := t.ids[row]
		sc.IDs[m] = id
		sc.Objs[m] = objs[id]
		m++
		if m == len(sc.IDs) {
			flushKNN(t.ds.Space(), q, sc, m, h)
			m = 0
		}
	}
	if m > 0 {
		flushKNN(t.ds.Space(), q, sc, m, h)
		m = 0
	}
	for base, blk := seed, knnBlockMin; base < len(t.ids); base, blk = base+blk, min(blk*2, knnBlock) {
		end := base + blk
		if end > len(t.ids) {
			end = len(t.ids)
		}
		sur := core.SurviveColumnsQuant(sc.Sur, sc.QD, t.qcol, t.cols, base, end, h.Radius())
		for _, row := range sur {
			id := t.ids[row]
			if accept != nil && !accept(int(id)) {
				continue
			}
			if core.PruneRowAt(sc.QD, t.cols, int(row), h.Radius()) {
				continue
			}
			sc.IDs[m] = id
			sc.Objs[m] = objs[id]
			m++
			if m == len(sc.IDs) {
				flushKNN(t.ds.Space(), q, sc, m, h)
				m = 0
			}
		}
	}
	if m > 0 {
		flushKNN(t.ds.Space(), q, sc, m, h)
	}
}

// flushKNN verifies one gathered chunk and offers every candidate to the
// heap in storage order.
//
//metriclint:noalloc
func flushKNN(sp *core.Space, q core.Object, sc *core.Scratch, m int, h *core.KNNHeap) {
	sp.DistanceMany(q, sc.Objs[:m], sc.Out[:m])
	for j := 0; j < m; j++ {
		h.Push(int(sc.IDs[j]), sc.Out[j])
	}
}

// Insert adds one object's row, computing its pivot distances through
// the batch kernel (one DistanceMany per insert).
func (t *LAESA) Insert(id int) error {
	if _, dup := t.rowOf[id]; dup {
		return fmt.Errorf("laesa: duplicate insert of %d", id)
	}
	o := t.ds.Object(id)
	if o == nil {
		return fmt.Errorf("laesa: insert of deleted or out-of-range id %d", id)
	}
	t.rowOf[id] = len(t.ids)
	t.ids = append(t.ids, int32(id))
	sc := t.scratch.Get()
	qd := sc.GrowQD(len(t.pivotVals))
	t.ds.Space().DistanceMany(o, t.pivotVals, qd)
	for i := range t.cols {
		t.cols[i] = append(t.cols[i], qd[i])
	}
	if t.qcol != nil {
		t.qcol.Append(qd[0])
	}
	t.scratch.Put(sc)
	t.mirrorRow(len(t.ids)-1, o)
	return nil
}

// Delete removes an object's row. Mirroring the paper (§6.3), the row is
// located by a sequential scan of the table before removal.
func (t *LAESA) Delete(id int) error {
	// Sequential scan, as the paper's LAESA deletion does.
	row := -1
	for i, rid := range t.ids {
		if int(rid) == id {
			row = i
			break
		}
	}
	if row < 0 {
		return fmt.Errorf("laesa: delete of unindexed object %d", id)
	}
	last := len(t.ids) - 1
	lastID := t.ids[last]
	t.ids[row] = lastID
	t.ids = t.ids[:last]
	for i := range t.cols {
		col := t.cols[i]
		col[row] = col[last]
		t.cols[i] = col[:last]
	}
	if t.qcol != nil {
		t.qcol.SwapDelete(row)
	}
	if t.flat != nil {
		t.flat.SwapDelete(row)
	}
	t.rowOf[int(lastID)] = row
	delete(t.rowOf, id)
	return nil
}

// PageAccesses returns 0: LAESA is an in-memory index.
func (t *LAESA) PageAccesses() int64 { return 0 }

// ResetStats is a no-op for the in-memory table.
func (t *LAESA) ResetStats() {}

// MemBytes reports the resident size of the pivot columns, the id list,
// and the flat coordinate mirror.
func (t *LAESA) MemBytes() int64 {
	n := int64(len(t.ids))*4 + int64(len(t.pivotIDs))*8
	for _, col := range t.cols {
		n += int64(len(col)) * 8
	}
	if t.flat != nil {
		n += t.flat.MemBytes()
	}
	return n
}

// DiskBytes returns 0: LAESA is an in-memory index.
func (t *LAESA) DiskBytes() int64 { return 0 }

func sortInts(xs []int) { sort.Ints(xs) }
