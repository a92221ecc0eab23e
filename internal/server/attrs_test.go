package server

import (
	"encoding/json"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/epoch"
	"metricindex/internal/persist"
	"metricindex/internal/testutil"
)

// TestOverLimitAttrsRejectedBeforeJournal is the regression test for
// acknowledged attribute writes that could not be replayed: a bag
// holding a string past the encoding's 65535-byte limit used to be
// journaled and acknowledged, then failed to decode on restart. Both
// write endpoints must now answer 400 and journal nothing, and every
// write they do acknowledge — the 65535-byte boundary included — must
// replay from the WAL to the same bags.
func TestOverLimitAttrsRejectedBeforeJournal(t *testing.T) {
	_, live, ts := newTestServer(t, 50, Options{})
	walPath := filepath.Join(t.TempDir(), "attrs.wal")
	wal, _, _, err := persist.OpenWAL(walPath, persist.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	live.SetJournal(wal)
	ep0 := live.Epoch()

	over := json.RawMessage(`{"name":"` + strings.Repeat("x", 70000) + `","level":3}`)
	if code := post(t, ts.URL+"/v1/attrs", AttrsRequest{ID: 7, Attrs: over}, nil); code != http.StatusBadRequest {
		t.Fatalf("/v1/attrs with a 70000-byte string: status %d, want 400", code)
	}
	obj := json.RawMessage(`[1, 2, 3, 4]`)
	if code := post(t, ts.URL+"/v1/insert", InsertRequest{Object: obj, Attrs: over}, nil); code != http.StatusBadRequest {
		t.Fatalf("/v1/insert with a 70000-byte string: status %d, want 400", code)
	}
	if got := live.Epoch(); got != ep0 {
		t.Fatalf("rejected writes committed: epoch %d -> %d", ep0, got)
	}
	if st := wal.Stats(); st.Records != 0 {
		t.Fatalf("rejected writes journaled %d records", st.Records)
	}

	edge := json.RawMessage(`{"name":"` + strings.Repeat("y", 65535) + `","tags":["a","b"]}`)
	if code := post(t, ts.URL+"/v1/attrs", AttrsRequest{ID: 7, Attrs: edge}, &AttrsResponse{}); code != http.StatusOK {
		t.Fatalf("/v1/attrs at the limit: status %d, want 200", code)
	}
	var ins InsertResponse
	if code := post(t, ts.URL+"/v1/insert", InsertRequest{Object: obj, Attrs: json.RawMessage(`{"level":3}`)}, &ins); code != http.StatusOK {
		t.Fatalf("/v1/insert: status %d, want 200", code)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the same initial dataset, then the WAL replayed on top.
	_, recs, _, err := persist.OpenWAL(walPath, persist.SyncAlways)
	if err != nil {
		t.Fatalf("reopening the WAL: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("WAL holds %d records, want 2", len(recs))
	}
	ds := testutil.VectorDataset(50, 4, 100, core.L2{}, 9)
	idx, err := laesaBuilder(ds)
	if err != nil {
		t.Fatal(err)
	}
	restored := epoch.NewLive(ds, idx)
	restored.SetEpoch(ep0)
	if _, err := persist.Replay(restored, recs); err != nil {
		t.Fatalf("replay: %v", err)
	}
	for _, id := range []int{7, ins.ID} {
		if got, want := restored.Attrs(id), live.Attrs(id); !got.Equal(want) {
			t.Fatalf("replayed bag of %d differs from the acknowledged one", id)
		}
	}
	if got := restored.Attrs(7)["name"].Str(); len(got) != 65535 {
		t.Fatalf("boundary string replayed as %d bytes", len(got))
	}
}
