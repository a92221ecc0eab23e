package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"metricindex/internal/core"
	"metricindex/internal/dataset"
)

// workload is one named traffic mix against one serving stack. Its
// inputs are generated (see makeInputs). OpenRate is fixed here, at
// 10–20% of the closed-loop request rate measured when the benchmark
// was written, and never derived from the code under test, so a slower
// server faces the same offered load.
type workload struct {
	Name    string
	Kind    dataset.Kind
	N       int
	Index   string // bench builder name, as mserve -index spells it
	Shards  int    // > 1 partitions the dataset (mserve -shards)
	Durable bool   // snapshot + WAL restore, WAL fsync "always"

	K          int     // kNN k
	Radius     float64 // fixed MRQ radius; 0 = the median 10-NN distance
	FilterFrac float64 // share of single reads carrying a filter
	BatchFrac  float64 // share of read requests sent as /v1/batch
	BatchSize  int     // kNN queries per batch
	WriteFrac  float64 // share of operations that insert
	Draw       int     // query objects generated with the dataset
	Pool       int     // 0 = every query distinct; else zipf over a pool
	ZipfS      float64
	WALInserts int // inserts in the WAL the durable set-up replays
	Inserts    int // distinct objects the load phases insert

	OpenRate   float64 // requests/s offered in the open-loop phase
	OpenShare  float64 // share of the measured seconds spent in the open loop
	Setups     int     // set-ups timed per run (setup_s is their median)
	CostProbes int     // queries in the sequential cost pass
	Checks     int     // post-load answers checked against a linear scan
	LadderLen  int     // cost-pass queries replayed per ladder rung
}

// filterBattery is cmd/loadgen's six-predicate battery: over datagen
// -attrs bags it makes the planner choose pre, probe and post.
var filterBattery = []string{
	`stock < 25`,
	`stock < 90`,
	`category = "kappa" AND stock < 50`,
	`price > 200`,
	`price < 10 OR tags = "sale"`,
	`category IN ("alpha", "beta") AND stock >= 50`,
}

var workloads = []workload{
	{
		Name: "geo-serve", Kind: dataset.LA, N: 20000, Index: "LAESA",
		K: 10, Draw: 300000, OpenRate: 1500, OpenShare: 0.4,
		Setups: 9, CostProbes: 1000, Checks: 200, LadderLen: 1000,
	},
	{
		Name: "words-shard", Kind: dataset.Words, N: 20000, Index: "SPB-tree", Shards: 2,
		K: 5, Radius: 2, Draw: 60000, OpenRate: 40, OpenShare: 0.4,
		Setups: 5, CostProbes: 200, Checks: 40, LadderLen: 100,
	},
	{
		Name: "hybrid-rw", Kind: dataset.LA, N: 100000, Index: "LAESA", Durable: true,
		K: 10, FilterFrac: 0.4, BatchFrac: 0.1, BatchSize: 16, WriteFrac: 0.05,
		Draw: 20000, Pool: 1000, ZipfS: 1.2, WALInserts: 2000, Inserts: 8000, OpenRate: 180, OpenShare: 0.4,
		Setups: 5, CostProbes: 400, Checks: 100, LadderLen: 400,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// opKind is the request type of one operation.
type opKind uint8

const (
	opKNN opKind = iota
	opRange
	opBatch
	opInsert
)

var opNames = [...]string{"knn", "range", "batch", "insert"}

func (o opKind) String() string { return opNames[o] }

// op is one generated operation. Query positions index the workload's
// query stream (or pool); Filter indexes filterBattery, -1 for none.
type op struct {
	Kind   opKind
	Query  int
	Batch  []int
	Filter int
	Insert int // position in the insert stream
}

// inputs are everything a run sends, generated from the seed before
// any timing starts.
type inputs struct {
	w       workload
	seed    int64
	gen     *dataset.Generated // dataset written for set-up; queries stripped
	queries objectList         // stream (distinct) or pool (zipf)
	inserts []core.Object      // objects the load phases insert
	attrs   []core.Attrs       // their attribute bags
	wal     []core.Object      // objects the durable set-up replays
	walAttr []core.Attrs
	radius  float64
	zipfCDF []float64
	hot     []int // zipf rank -> pool index
}

// splitmix64 derives independent uniform streams from (seed, i) so an
// operation's content depends only on its position, never on timing.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// uniformAt returns the lane-th uniform draw in [0, 1) of position i.
func uniformAt(seed int64, i int, lane uint64) float64 {
	h := splitmix64(uint64(seed)*0x100000001b3 ^ uint64(i)<<8 ^ lane)
	return float64(h>>11) / (1 << 53)
}

func (in *inputs) uniform(i int, lane uint64) float64 { return uniformAt(in.seed, i, lane) }

// objectList holds query objects. Vectors are kept in one flat,
// pointer-free array, so a large stream adds nothing for the garbage
// collector to mark while the server runs in the same process.
type objectList struct {
	objs []core.Object // non-vector objects
	flat []float64     // vectors, row-major
	dim  int
}

func newObjectList(objs []core.Object) objectList {
	v, ok := objs[0].(core.Vector)
	if !ok {
		return objectList{objs: objs}
	}
	l := objectList{flat: make([]float64, 0, len(objs)*len(v)), dim: len(v)}
	for _, o := range objs {
		l.flat = append(l.flat, o.(core.Vector)...)
	}
	return l
}

func (l objectList) len() int {
	if l.dim > 0 {
		return len(l.flat) / l.dim
	}
	return len(l.objs)
}

// at returns object i; a vector aliases the flat array and must not be
// modified.
func (l objectList) at(i int) core.Object {
	if l.dim > 0 {
		return core.Vector(l.flat[i*l.dim : (i+1)*l.dim : (i+1)*l.dim])
	}
	return l.objs[i]
}

// queryAt returns query stream position i. Streams hold several times
// what a run consumed when the benchmark was written; past their end
// the stream wraps with a deterministic perturbation, so positions
// never repeat a query.
func (in *inputs) queryAt(i int) core.Object {
	n := in.queries.len()
	if in.w.Pool > 0 || i < n {
		return in.queries.at(i % n)
	}
	lap := i / n
	switch v := in.queries.at(i % n).(type) {
	case core.Vector:
		out := v.Clone()
		out[0] += float64(lap) * 1e-3
		return out
	case core.Word:
		return core.Word(string(v) + string(rune('a'+lap%26)))
	default:
		return v
	}
}

// pickPool draws a pool index from the zipf(s) distribution with the
// given uniform draw: inverse CDF over the ranks, then the fixed
// permutation from rank to pool entry.
func (in *inputs) pickPool(u float64) int {
	return in.hot[sort.SearchFloat64s(in.zipfCDF, u)]
}

// opAt is the i-th operation of the load phases. Distinct-query
// workloads consume the stream from position streamBase+i.
func (in *inputs) opAt(i, streamBase int) op {
	w := in.w
	o := op{Filter: -1}
	if w.WriteFrac > 0 && in.uniform(i, 1) < w.WriteFrac {
		o.Kind = opInsert
		o.Insert = i % len(in.inserts)
		return o
	}
	if w.BatchFrac > 0 && in.uniform(i, 2) < w.BatchFrac {
		o.Kind = opBatch
		o.Batch = make([]int, w.BatchSize)
		for j := range o.Batch {
			o.Batch[j] = in.pickPool(in.uniform(i, 16+uint64(j)))
		}
		return o
	}
	o.Kind = opKNN
	if in.uniform(i, 3) >= 0.5 {
		o.Kind = opRange
	}
	if w.Pool > 0 {
		o.Query = in.pickPool(in.uniform(i, 4))
	} else {
		o.Query = streamBase + i
	}
	if w.FilterFrac > 0 && in.uniform(i, 5) < w.FilterFrac {
		o.Filter = int(in.uniform(i, 6) * float64(len(filterBattery)))
	}
	return o
}

// costOps is the cost pass: query positions 0..CostProbes-1, the same
// distinct queries with the same kinds and filters on every seed, so
// its compdists and page accesses repeat exactly across runs.
func (in *inputs) costOps() []op {
	ops := make([]op, in.w.CostProbes)
	for i := range ops {
		o := op{Kind: opKNN, Query: i, Filter: -1}
		if uniformAt(datasetSeed, i, 7) >= 0.5 {
			o.Kind = opRange
		}
		if in.w.FilterFrac > 0 && uniformAt(datasetSeed, i, 8) < in.w.FilterFrac {
			o.Filter = int(uniformAt(datasetSeed, i, 9) * float64(len(filterBattery)))
		}
		ops[i] = o
	}
	return ops
}

// datasetSeed fixes each workload's dataset, the objects its queries
// are drawn from, the cost pass, and a pool with its hot set. The run's
// seed picks the query stream (or the draws from the pool), the
// operation mix and the rows inserted, so runs on different seeds
// differ in what they ask, not in what is stored.
const datasetSeed = 2017

// makeInputs generates the dataset, queries, inserts and attribute
// bags of one run. Query positions 0..CostProbes-1 are the fixed cost
// pass; the rest of the stream (or pool) is the seed's.
func makeInputs(w workload, seed int64) (*inputs, error) {
	in := &inputs{w: w, seed: seed}
	gen, err := dataset.Generate(w.Kind, dataset.Config{N: w.N, Queries: w.Draw, Seed: datasetSeed})
	if err != nil {
		return nil, err
	}
	if w.FilterFrac > 0 {
		if err := dataset.AttachAttrs(gen, datasetSeed+7); err != nil {
			return nil, err
		}
	}
	objs := gen.Queries
	if w.Kind == dataset.Words {
		objs = distinctWords(objs)
	}
	in.radius = w.Radius
	if in.radius == 0 {
		in.radius = medianKthDistance(gen.Dataset, objs[:128], 10)
	}
	// The replayed WAL is part of the stored state: fixed, like the
	// dataset.
	if w.CostProbes+w.WALInserts > len(objs) {
		return nil, fmt.Errorf("%s: %d distinct query objects are too few", w.Name, len(objs))
	}
	in.wal = objs[:w.WALInserts]
	fixed := rand.New(rand.NewSource(datasetSeed))
	in.walAttr = make([]core.Attrs, len(in.wal))
	for i := range in.walAttr {
		in.walAttr[i] = randomAttrs(fixed)
	}
	objs = objs[w.WALInserts:]
	// A distinct stream is the seed's own beyond the cost pass; a pool
	// and its hot set are fixed, and the seed draws from them.
	rest := objs[max(w.CostProbes, w.Pool):]
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	nq := w.Pool
	if nq == 0 {
		nq = len(objs) - w.Inserts
	}
	if nq <= w.CostProbes+w.Checks || nq+w.Inserts > len(objs) {
		return nil, fmt.Errorf("%s: %d distinct query objects are too few", w.Name, len(objs))
	}
	in.queries = newObjectList(objs[:nq])
	in.inserts = objs[nq : nq+w.Inserts]
	in.attrs = make([]core.Attrs, len(in.inserts))
	for i := range in.attrs {
		in.attrs[i] = randomAttrs(rng)
	}
	if w.Pool > 0 {
		in.zipfCDF = zipfCDF(w.Pool, w.ZipfS)
		in.hot = fixed.Perm(w.Pool)
	}
	gen.Queries = nil
	in.gen = gen
	return in, nil
}

func distinctWords(objs []core.Object) []core.Object {
	seen := make(map[core.Word]bool, len(objs))
	out := objs[:0:0]
	for _, o := range objs {
		w := o.(core.Word)
		if !seen[w] {
			seen[w] = true
			out = append(out, o)
		}
	}
	return out
}

// randomAttrs draws a bag shaped like datagen -attrs bags, so inserted
// rows take part in every filter of the battery.
func randomAttrs(rng *rand.Rand) core.Attrs {
	cats := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa"}
	a := core.Attrs{
		"category": core.StringValue(cats[rng.Intn(len(cats))]),
		"price":    core.FloatValue(math.Round(20*math.Exp(rng.NormFloat64())*100) / 100),
		"stock":    core.IntValue(int64(rng.Intn(100))),
	}
	if rng.Float64() < 0.3 {
		a["tags"] = core.TagsValue("sale")
	}
	return a
}

// medianKthDistance is the median, over a sample of queries, of the
// distance to the k-th nearest object: an MRQ radius that returns about
// k objects on a typical query. It uses the raw metric, so set-up is
// not charged to compdists.
func medianKthDistance(ds *core.Dataset, qs []core.Object, k int) float64 {
	m := ds.Space().Metric()
	kth := make([]float64, 0, len(qs))
	for _, q := range qs {
		h := core.NewKNNHeap(k)
		for id, o := range ds.Objects() {
			if o != nil {
				h.Push(id, m.Distance(q, o))
			}
		}
		kth = append(kth, h.Radius())
	}
	sort.Float64s(kth)
	return kth[len(kth)/2]
}

// zipfCDF is the cumulative distribution of zipf(s) over n ranks.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	total := 0.0
	for i := range cdf {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	cdf[n-1] = 1
	return cdf
}
