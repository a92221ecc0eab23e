package persist

import (
	"bytes"
	"testing"

	"metricindex/internal/core"
)

// TestDecodeDatasetCanonicalizesBags: a snapshot bag with keys out of
// order and a repeated key still loads — the repeat keeps the map's
// last-wins meaning — and re-saves in canonical form.
func TestDecodeDatasetCanonicalizesBags(t *testing.T) {
	intField := func(key string, v byte) []byte {
		return []byte{byte(len(key)), 0, key[0], byte(core.AttrInt), v, 0, 0, 0, 0, 0, 0, 0}
	}
	crafted := []byte{3, 0}
	crafted = append(crafted, intField("b", 1)...)
	crafted = append(crafted, intField("a", 2)...)
	crafted = append(crafted, intField("b", 3)...)
	w := NewWriter()
	w.U32(2)
	w.U8(slotObject | slotAttrs)
	w.Object(core.Vector{1})
	w.buf = append(w.buf, crafted...)
	w.U8(slotObject)
	w.Object(core.Vector{2})

	ds, err := decodeDataset(w.Bytes(), core.L2{})
	if err != nil {
		t.Fatal(err)
	}
	want := core.Attrs{"a": core.IntValue(2), "b": core.IntValue(3)}
	if !ds.Attrs(0).Equal(want) || ds.Attrs(1) != nil {
		t.Fatalf("loaded bags %v, %v; want %v, none", ds.Attrs(0), ds.Attrs(1), want)
	}
	canon, err := core.EncodeAttrs(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	exp := NewWriter()
	exp.U32(2)
	exp.U8(slotObject | slotAttrs)
	exp.Object(core.Vector{1})
	exp.AttrRow(canon)
	exp.U8(slotObject)
	exp.Object(core.Vector{2})
	got := NewWriter()
	encodeDataset(got, ds)
	if !bytes.Equal(got.Bytes(), exp.Bytes()) {
		t.Fatalf("re-saved payload %x, want canonical %x", got.Bytes(), exp.Bytes())
	}
}
