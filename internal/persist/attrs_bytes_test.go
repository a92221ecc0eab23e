package persist_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/epoch"
	"metricindex/internal/persist"
	"metricindex/internal/table"
	"metricindex/internal/testutil"
)

// Digests of the attrs-carrying images below, as the map-based attrs
// store wrote them before bags moved into per-dataset arenas. Holding
// them fixed proves the arena changed no on-disk byte.
const (
	attrsSnapshotSHA256 = "e98d305e664d6cdb6904e0208ed26f8ccaee7417bbde79fa275284593dbbf141"
	attrsWALSHA256      = "c3624930706b7676857bc4589ef121a20478adfa0d24c491b8cd71671f3cb37d"
)

// attrsLive builds the fixture: a LAESA-backed Live over 300 vectors
// with test bags, three slots deleted and one bag replaced.
func attrsLive(t *testing.T) *epoch.Live {
	t.Helper()
	ds := testutil.VectorDataset(300, 4, 100, core.L2{}, 21)
	testutil.AttachTestAttrs(t, ds, 22)
	for _, id := range []int{5, 77, 299} {
		if err := ds.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	bag := core.Attrs{"z": core.TagsValue("b", "a", "b"), "a": core.FloatValue(-0.5), "m": core.StringValue("")}
	if err := ds.SetAttrs(9, bag); err != nil {
		t.Fatal(err)
	}
	idx, err := table.NewLAESA(ds, testutil.SpreadPivots(ds, 4))
	if err != nil {
		t.Fatal(err)
	}
	return epoch.NewLive(ds, idx)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestAttrsSnapshotBytes: an attrs-carrying snapshot is byte-identical
// across Save → Load → Save, and identical to the image the map-based
// store wrote for the same dataset.
func TestAttrsSnapshotBytes(t *testing.T) {
	l := attrsLive(t)
	var image []byte
	err := l.Snapshot(func(ds *core.Dataset, idx core.Index, ep uint64) error {
		var err error
		image, err = persist.Encode(ds, idx, ep)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := digest(image); got != attrsSnapshotSHA256 {
		t.Errorf("snapshot digest %s, want %s", got, attrsSnapshotSHA256)
	}
	// Decode a copy and then scribble over it: loaded bags must be
	// copied into the arena, never aliased into the file buffer (which
	// would also pin the whole image in the heap).
	buf := append([]byte(nil), image...)
	snap, err := persist.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xAA
	}
	again, err := persist.Encode(snap.Dataset, snap.Index, snap.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, image) {
		t.Fatal("Save → Load → Save changed the snapshot bytes")
	}
	l.View(func(ds *core.Dataset, _ core.Index) {
		for id := range ds.Len() {
			if !snap.Dataset.Attrs(id).Equal(ds.Attrs(id)) {
				t.Fatalf("bag of %d changed across the snapshot", id)
			}
		}
	})
}

// TestAttrsWALBytes: the journal of attr-carrying writes is identical
// to the one the map-based store wrote for the same writes.
func TestAttrsWALBytes(t *testing.T) {
	l := attrsLive(t)
	path := filepath.Join(t.TempDir(), "attrs.wal")
	wal, _, _, err := persist.OpenWAL(path, persist.SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	l.SetJournal(wal)
	id, err := l.AddAttrs(core.Vector{1, 2, 3, 4}, core.Attrs{
		"level": core.IntValue(4), "tags": core.TagsValue("hot", "x"), "category": core.StringValue("mid"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Add(core.Vector{4, 3, 2, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.SetAttrsAt(12, core.Attrs{"score": core.FloatValue(3.25)}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.SetAttrsAt(id, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Remove(13); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := digest(data); got != attrsWALSHA256 {
		t.Errorf("WAL digest %s, want %s", got, attrsWALSHA256)
	}
}
