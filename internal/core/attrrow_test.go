package core

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"testing"
)

func sampleAttrs() Attrs {
	return Attrs{
		"price": FloatValue(12.5),
		"stock": IntValue(-3),
		"cat":   StringValue("beta"),
		"tags":  TagsValue("new", "sale"),
	}
}

func mustEncode(t *testing.T, a Attrs) AttrRow {
	t.Helper()
	row, err := EncodeAttrs(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	return row
}

// TestEncodeAttrsFrozenBytes pins the wire encoding byte for byte: the
// MXSNAP, MXWAL and MIDX2 formats and the in-memory arena all carry it.
func TestEncodeAttrsFrozenBytes(t *testing.T) {
	got := mustEncode(t, Attrs{"b": StringValue("xy"), "a": IntValue(1), "t": TagsValue("p")})
	want := []byte{
		3, 0, // three fields, keys ascending
		1, 0, 'a', 1, 1, 0, 0, 0, 0, 0, 0, 0, // a: int 1
		1, 0, 'b', 3, 2, 0, 'x', 'y', // b: string "xy"
		1, 0, 't', 4, 1, 0, 1, 0, 'p', // t: tags {p}
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding = %v, want %v", []byte(got), want)
	}
	if empty := mustEncode(t, nil); !bytes.Equal(empty, []byte{0, 0}) {
		t.Fatalf("empty bag encodes as %v", []byte(empty))
	}
}

func TestAttrRowRoundTrip(t *testing.T) {
	a := sampleAttrs()
	row := mustEncode(t, a)
	if !row.Attrs().Equal(a) {
		t.Fatalf("decoded %v, want %v", row.Attrs(), a)
	}
	// A view running on past the bag reads only the bag.
	long := AttrRow(append(append([]byte(nil), row...), 9, 9, 9))
	if !bytes.Equal(long.Bytes(), row) || !long.Attrs().Equal(a) {
		t.Fatalf("trailing bytes leaked into the bag")
	}
	for k, v := range a {
		f, ok := row.Lookup(k)
		if !ok || f.Kind() != v.Kind() {
			t.Fatalf("Lookup(%q) = %v, %v", k, f.Kind(), ok)
		}
	}
	for _, k := range []string{"", "a", "catz", "zzz"} {
		if _, ok := row.Lookup(k); ok {
			t.Fatalf("Lookup(%q) found a missing key", k)
		}
	}
	stock, _ := row.Lookup("stock")
	if x, ok := stock.Numeric(); x != -3 || !ok {
		t.Fatalf("stock reads back as %v, %v; want -3", x, ok)
	}
	if f, _ := row.Lookup("tags"); !f.HasTag("sale") || f.HasTag("sal") {
		t.Fatal("tag membership wrong")
	}
	if f, _ := row.Lookup("cat"); f.CompareStr("beta") != 0 || f.CompareStr("c") != -1 || f.CompareStr("bet") != 1 {
		t.Fatal("CompareStr disagrees with strings.Compare")
	}
	if !AttrRow(nil).Empty() || AttrRow(nil).Attrs() != nil || !bytes.Equal(AttrRow(nil).Bytes(), []byte{0, 0}) {
		t.Fatal("nil row is not the empty bag")
	}
}

// TestEncodeAttrsLimits: every uint16 field of the encoding is checked
// at write time, with ErrAttrsTooLarge, and a failed encode leaves dst
// as it was.
func TestEncodeAttrsLimits(t *testing.T) {
	long := strings.Repeat("x", 70000)
	many := make([]string, 70000)
	wide := make(Attrs, 65536)
	for i := range 65536 {
		wide[strconv.Itoa(i)] = IntValue(1)
	}
	for name, a := range map[string]Attrs{
		"string":    {"s": StringValue(long)},
		"key":       {long: IntValue(1)},
		"tag":       {"t": TagsValue("ok", long)},
		"tag count": {"t": TagsValue(many...)},
		"fields":    wide,
	} {
		dst := []byte{7}
		out, err := EncodeAttrs(dst, a)
		if !errors.Is(err, ErrAttrsTooLarge) {
			t.Errorf("%s: err = %v, want ErrAttrsTooLarge", name, err)
		}
		if !bytes.Equal(out, []byte{7}) {
			t.Errorf("%s: failed encode changed dst", name)
		}
	}
	if _, err := EncodeAttrs(nil, Attrs{"z": {}}); err == nil || errors.Is(err, ErrAttrsTooLarge) {
		t.Errorf("zero AttrValue: err = %v, want an invalid-kind error", err)
	}
	ok := Attrs{"s": StringValue(strings.Repeat("x", 65535))}
	if _, err := EncodeAttrs(nil, ok); err != nil {
		t.Errorf("65535-byte string rejected: %v", err)
	}
}

// TestParseAttrRowCanonicalizes: a canonical bag comes back as a view of
// the input; unsorted or repeated keys are decoded (last wins, as in a
// map) and re-encoded canonically.
func TestParseAttrRowCanonicalizes(t *testing.T) {
	canon := mustEncode(t, sampleAttrs())
	buf := append(append([]byte(nil), canon...), 1, 2, 3)
	row, n, err := ParseAttrRow(buf)
	if err != nil || n != len(canon) || !bytes.Equal(row, canon) || &row[0] != &buf[0] {
		t.Fatalf("canonical bag: n=%d err=%v, not returned as a view", n, err)
	}
	field := func(key string, v int64) []byte {
		b := []byte{byte(len(key)), 0}
		b = append(b, key...)
		b = append(b, byte(AttrInt))
		return append(b, byte(v), 0, 0, 0, 0, 0, 0, 0)
	}
	raw := []byte{3, 0}
	raw = append(raw, field("b", 1)...)
	raw = append(raw, field("a", 2)...)
	raw = append(raw, field("b", 3)...)
	row, n, err = ParseAttrRow(raw)
	if err != nil || n != len(raw) {
		t.Fatalf("non-canonical bag: n=%d err=%v", n, err)
	}
	want := Attrs{"a": IntValue(2), "b": IntValue(3)}
	if !row.Attrs().Equal(want) || !bytes.Equal(row, mustEncode(t, want)) {
		t.Fatalf("got %v (%v), want canonical %v", row.Attrs(), []byte(row), want)
	}
	for _, bad := range [][]byte{nil, {1}, {1, 0}, {1, 0, 1, 0, 'a', 9}, {1, 0, 1, 0, 'a', 3, 5, 0, 'x'}} {
		if _, _, err := ParseAttrRow(bad); err == nil {
			t.Errorf("ParseAttrRow(%v) accepted malformed input", bad)
		}
	}
}

// TestDatasetAttrArena covers the arena's life cycle: rows are encoded
// on SetAttrs, views stay valid and unchanged across replacement,
// deletion and compaction, and compaction runs once dead bytes outgrow
// live ones.
func TestDatasetAttrArena(t *testing.T) {
	objs := make([]Object, 8)
	for i := range objs {
		objs[i] = Vector{float64(i)}
	}
	ds := NewDataset(NewSpace(L2{}), objs)
	if !ds.AttrRow(3).Empty() || ds.Attrs(3) != nil || ds.AttrRow(-1) != nil || ds.AttrRow(99) != nil {
		t.Fatal("attr-less dataset reports a bag")
	}
	a := sampleAttrs()
	for id := range 4 {
		if err := ds.SetAttrs(id, a); err != nil {
			t.Fatal(err)
		}
	}
	view := ds.AttrRow(0)
	before := append([]byte(nil), view.Bytes()...)
	rowLen := len(before)
	if got := len(ds.attrs); got != 2+4*rowLen || ds.attrLive != got {
		t.Fatalf("arena %d bytes, live %d; want %d both", got, ds.attrLive, 2+4*rowLen)
	}
	if err := ds.SetAttrs(0, Attrs{"x": IntValue(1)}); err != nil {
		t.Fatal(err)
	}
	if err := ds.Delete(1); err != nil {
		t.Fatal(err)
	}
	if !ds.AttrRow(1).Empty() {
		t.Fatal("deleted slot keeps its bag")
	}
	if err := ds.SetAttrs(2, nil); err != nil {
		t.Fatal(err)
	}
	// Dead: three sample rows; live: one sample row, one small row and
	// the empty bag — so the arena has compacted.
	small := len(mustEncode(t, Attrs{"x": IntValue(1)}))
	if got, want := len(ds.attrs), 2+rowLen+small; got != want || ds.attrLive != want {
		t.Fatalf("after compaction arena %d bytes, live %d; want %d", got, ds.attrLive, want)
	}
	if !bytes.Equal(view.Bytes(), before) {
		t.Fatal("a view taken before compaction changed")
	}
	if !ds.Attrs(3).Equal(a) || !ds.Attrs(0).Equal(Attrs{"x": IntValue(1)}) {
		t.Fatal("compaction lost a bag")
	}
	if err := ds.SetAttrs(7, Attrs{"s": StringValue(strings.Repeat("x", 70000))}); !errors.Is(err, ErrAttrsTooLarge) {
		t.Fatalf("over-limit bag: err = %v", err)
	}
	if !ds.AttrRow(7).Empty() {
		t.Fatal("rejected bag was stored")
	}
	if err := ds.SetAttrs(1, a); err == nil {
		t.Fatal("attrs on a deleted slot accepted")
	}
	if err := ds.SetAttrRow(5, view); err != nil || !ds.Attrs(5).Equal(a) {
		t.Fatalf("SetAttrRow: err %v, bag %v", err, ds.Attrs(5))
	}
}

// TestCopyAttrsFromSharesArena: a clone shares the arena with its
// capacity clipped, so later writes on either side never show on the
// other.
func TestCopyAttrsFromSharesArena(t *testing.T) {
	objs := []Object{Vector{0}, Vector{1}, Vector{2}}
	src := NewDataset(NewSpace(L2{}), objs)
	for id := range 3 {
		if err := src.SetAttrs(id, Attrs{"i": IntValue(int64(id))}); err != nil {
			t.Fatal(err)
		}
	}
	src.attrs = append(make([]byte, 0, 4*len(src.attrs)), src.attrs...) // spare capacity
	snap := NewDataset(src.Space(), []Object{objs[0], nil, objs[2]})
	snap.CopyAttrsFrom(src)
	if &snap.attrs[0] != &src.attrs[0] || cap(snap.attrs) != len(snap.attrs) {
		t.Fatal("arena not shared with clipped capacity")
	}
	if !snap.AttrRow(1).Empty() || !snap.Attrs(2).Equal(Attrs{"i": IntValue(2)}) {
		t.Fatal("clone holds the wrong bags")
	}
	if err := src.SetAttrs(0, Attrs{"src": IntValue(1)}); err != nil {
		t.Fatal(err)
	}
	if err := snap.SetAttrs(2, Attrs{"snap": IntValue(1)}); err != nil {
		t.Fatal(err)
	}
	if !snap.Attrs(0).Equal(Attrs{"i": IntValue(0)}) || !src.Attrs(2).Equal(Attrs{"i": IntValue(2)}) {
		t.Fatal("a write on one side showed on the other")
	}
	if !src.Attrs(0).Equal(Attrs{"src": IntValue(1)}) || !snap.Attrs(2).Equal(Attrs{"snap": IntValue(1)}) {
		t.Fatal("a write was lost")
	}
}
