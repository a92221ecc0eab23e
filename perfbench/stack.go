package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"metricindex/internal/bench"
	"metricindex/internal/cache"
	"metricindex/internal/core"
	"metricindex/internal/dataset"
	"metricindex/internal/epoch"
	"metricindex/internal/obs"
	"metricindex/internal/persist"
	"metricindex/internal/server"
)

// cacheMB is mserve's default answer-cache budget.
const cacheMB = 64

// stack is one running serving stack: server.New over epoch.Live, wired
// as cmd/mserve wires it, listening on a 127.0.0.1 port.
type stack struct {
	live  *epoch.Live
	srv   *server.Server
	space *core.Space
	hs    *http.Server
	done  chan error
	base  string
	wal   *persist.WAL

	restoreTime time.Duration // durable: snapshot load + WAL replay
	replayed    int
	stopped     bool
}

// files are the prepared on-disk inputs of a run.
type files struct {
	dir      string
	dataPath string // dataset file, as datagen writes it
	snapPath string // durable: snapshot at epoch 0
	walSeed  string // durable: pristine WAL of the seeded inserts
	walPath  string // durable: the WAL a set-up restores and appends to
}

// prepare writes the dataset file and, for a durable workload, builds
// the snapshot and the WAL of seeded inserts the set-up restores from.
// Nothing here is timed.
func prepare(in *inputs, dir string) (*files, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f := &files{
		dir:      dir,
		dataPath: filepath.Join(dir, "data.midx"),
		snapPath: filepath.Join(dir, "snapshot.mxs"),
		walSeed:  filepath.Join(dir, "seed.mxl"),
		walPath:  filepath.Join(dir, "wal.mxl"),
	}
	if err := dataset.Save(f.dataPath, in.gen); err != nil {
		return nil, err
	}
	if !in.w.Durable {
		return f, nil
	}
	gen, err := dataset.Load(f.dataPath)
	if err != nil {
		return nil, err
	}
	idx, err := buildIndex(in.w, gen, nil)
	if err != nil {
		return nil, err
	}
	live := epoch.NewLive(gen.Dataset, idx)
	if err := persist.SaveLive(f.snapPath, live); err != nil {
		return nil, err
	}
	wal, _, _, err := persist.OpenWAL(f.walSeed, persist.SyncOff)
	if err != nil {
		return nil, err
	}
	live.SetJournal(wal)
	for i, o := range in.wal {
		if _, _, err := live.AddAttrsAt(o, in.walAttr[i]); err != nil {
			wal.Close()
			return nil, err
		}
	}
	if err := wal.Close(); err != nil {
		return nil, err
	}
	return f, nil
}

// buildIndex selects 5 HFI pivots and builds the workload's index the
// way mserve does (bench.BuilderByName through bench.MeasureBuild, which
// shards it when Shards > 1). With a recorder, every shard's sub-index
// is decorated by a builder that wraps the named one.
func buildIndex(w workload, gen *dataset.Generated, rec *recorder) (core.Index, error) {
	cfg := bench.Config{N: gen.Dataset.Count(), Pivots: 5, Shards: w.Shards, Workers: -1}.WithDefaults()
	env := &bench.Env{Cfg: cfg, Gen: gen}
	var err error
	if env.Pivots, err = bench.SelectHFI(gen.Dataset, cfg.Pivots, cfg.Seed+1); err != nil {
		return nil, err
	}
	builder, err := bench.BuilderByName(w.Index)
	if err != nil {
		return nil, err
	}
	if rec != nil && cfg.Shards > 1 {
		inner := builder
		var shardNo atomic.Int32
		builder.Build = func(e *bench.Env) (*bench.Built, error) {
			built, err := inner.Build(e)
			// MeasureBuild's ShardedBuilder calls this once per shard.
			// Builds run in parallel; shards are numbered by completion.
			if err == nil {
				built.Index = wrapIndex(built.Index, rec, nil, spanShard, int(shardNo.Add(1)-1))
			}
			return built, err
		}
	}
	built, _, err := bench.MeasureBuild(env, builder)
	if err != nil {
		return nil, err
	}
	return built.Index, nil
}

// setUp starts one serving stack and returns it once /healthz answers.
// Everything from the dataset load (or, durable, the snapshot load) to
// the first healthy answer is set-up time.
func setUp(in *inputs, f *files, rec *recorder) (*stack, time.Duration, error) {
	start := time.Now()
	st := &stack{}
	var live *epoch.Live
	if in.w.Durable {
		var err error
		if live, err = restore(st, f, rec); err != nil {
			return nil, 0, err
		}
	} else {
		gen, err := dataset.Load(f.dataPath)
		if err != nil {
			return nil, 0, err
		}
		idx, err := buildIndex(in.w, gen, rec)
		if err != nil {
			return nil, 0, err
		}
		if rec != nil {
			idx = wrapIndex(idx, rec, gen.Dataset, spanIndex, 0)
		}
		live = epoch.NewLive(gen.Dataset, idx)
	}
	reg := obs.NewRegistry()
	opts := server.Options{
		Workers: -1, Obs: reg,
		Cache: &cache.Options{MaxBytes: cacheMB << 20},
	}
	if st.wal != nil {
		wal := st.wal
		wal.SetObs(&persist.WALObs{
			Appends:      reg.Counter("mx_persist_wal_appends_total", "WAL records appended."),
			AppendBytes:  reg.Counter("mx_persist_wal_append_bytes_total", "Bytes of WAL frames appended."),
			FsyncSeconds: reg.Histogram("mx_persist_wal_fsync_seconds", "WAL fsync duration.", obs.DefLatencyBuckets),
		})
		opts.PersistStats = func() server.PersistenceStats {
			ws := wal.Stats()
			return server.PersistenceStats{Enabled: true, Dir: f.dir, Restored: true,
				WALRecords: ws.Records, WALBytes: ws.Bytes, Fsync: ws.Mode.String()}
		}
	}
	srv, err := server.New(live, opts)
	if err != nil {
		st.closeWAL()
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.closeWAL()
		return nil, 0, err
	}
	var h http.Handler = srv.Handler()
	if rec != nil {
		h = rec.middleware(h)
	}
	st.live, st.srv = live, srv
	live.View(func(ds *core.Dataset, _ core.Index) { st.space = ds.Space() })
	st.hs = &http.Server{Handler: h}
	st.done = make(chan error, 1)
	st.base = "http://" + ln.Addr().String()
	go func() { st.done <- st.hs.Serve(ln) }()
	if err := waitHealthy(st.base); err != nil {
		st.stop()
		return nil, 0, err
	}
	return st, time.Since(start), nil
}

// restore is mserve's restart path: snapshot load, WAL replay at exact
// epochs, and the WAL (fsync always) attached as the journal.
func restore(st *stack, f *files, rec *recorder) (*epoch.Live, error) {
	start := time.Now()
	snap, err := persist.LoadFile(f.snapPath)
	if err != nil {
		return nil, err
	}
	idx := snap.Index
	if rec != nil {
		idx = wrapIndex(idx, rec, snap.Dataset, spanIndex, 0)
	}
	live := epoch.NewLive(snap.Dataset, idx)
	live.SetEpoch(snap.Epoch)
	wal, recs, _, err := persist.OpenWAL(f.walPath, persist.SyncAlways)
	if err != nil {
		return nil, err
	}
	if st.replayed, err = persist.Replay(live, recs); err != nil {
		wal.Close()
		return nil, err
	}
	var j epoch.Journal = wal
	if rec != nil {
		j = &tracedJournal{inner: wal, rec: rec}
	}
	live.SetJournal(j)
	st.wal = wal
	st.restoreTime = time.Since(start)
	return live, nil
}

// resetWAL puts the pristine WAL of seeded inserts where the next
// set-up restores from (each set-up appends to its own copy).
func (f *files) resetWAL() error {
	data, err := os.ReadFile(f.walSeed)
	if err != nil {
		return err
	}
	return os.WriteFile(f.walPath, data, 0o644)
}

func waitHealthy(base string) error {
	client := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return nil
			}
			err = fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the listener down, waits for in-flight handlers and the
// serve goroutine, and closes the WAL. Calls after the first are no-ops.
func (st *stack) stop() error {
	if st.stopped {
		return nil
	}
	st.stopped = true
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := st.hs.Shutdown(ctx)
	if serr := <-st.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if werr := st.closeWAL(); werr != nil && err == nil {
		err = werr
	}
	return err
}

func (st *stack) closeWAL() error {
	if st.wal == nil {
		return nil
	}
	err := st.wal.Close()
	st.wal = nil
	return err
}
