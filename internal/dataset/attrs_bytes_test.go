package dataset

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// attrsMIDXSHA256 is the digest of the MIDX2 file below as the
// map-based attrs store wrote it, before bags moved into per-dataset
// arenas. Holding it fixed proves the arena changed no on-disk byte.
const attrsMIDXSHA256 = "97482e568b83b5dba088e9782bef6ed46e6334de9d301871e0f5d40390726160"

// TestAttrsMIDXBytes: an attrs-carrying MIDX2 file is byte-identical
// across Save → Load → Save, and identical to the file the map-based
// store wrote for the same dataset.
func TestAttrsMIDXBytes(t *testing.T) {
	dir := t.TempDir()
	g, err := Generate(LA, Config{N: 400, Queries: 5, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if err := AttachAttrs(g, 18); err != nil {
		t.Fatal(err)
	}
	first := filepath.Join(dir, "a.midx")
	if err := Save(first, g); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != attrsMIDXSHA256 {
		t.Errorf("MIDX2 digest %s, want %s", got, attrsMIDXSHA256)
	}
	loaded, err := Load(first)
	if err != nil {
		t.Fatal(err)
	}
	second := filepath.Join(dir, "b.midx")
	if err := Save(second, loaded); err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, raw) {
		t.Fatal("Save → Load → Save changed the MIDX2 bytes")
	}
}
