package core_test

import (
	"bytes"
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/plan"
)

// attrPredicates cover every leaf type and both connectives, over the
// field names the seeds use.
var attrPredicates = []string{
	`a = 1`,
	`b = "xy" OR t = "p"`,
	`a >= -1 AND b < "z" AND t IN ("p", "q")`,
	`b != "x" OR a IN (1, 2.5)`,
}

// FuzzAttrRow: on arbitrary bytes the row parser never panics, and
// whatever it accepts is canonical — decoding the row and re-encoding
// the bag gives exactly the row, a canonical input comes back unchanged,
// and re-parsing the row is the identity. Predicate evaluation is total
// on accepted rows and on the raw bytes alike.
func FuzzAttrRow(f *testing.F) {
	seeds := []core.Attrs{
		nil,
		{"a": core.IntValue(1), "b": core.StringValue("xy"), "t": core.TagsValue("p")},
		{"a": core.FloatValue(-2.5), "t": core.TagsValue()},
	}
	for _, a := range seeds {
		row, err := core.EncodeAttrs(nil, a)
		if err != nil {
			f.Fatal(err)
		}
		f.Add([]byte(row))
	}
	f.Add([]byte{2, 0, 1, 0, 'b', 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 'a', 1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 0, 1, 0, 'a', 3, 0xff, 0xff})
	var preds []*plan.Predicate
	for _, src := range attrPredicates {
		p, err := plan.Parse(src)
		if err != nil {
			f.Fatal(err)
		}
		preds = append(preds, p)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		for _, p := range preds {
			_ = p.EvalRow(core.AttrRow(buf))
		}
		row, n, err := core.ParseAttrRow(buf)
		if err != nil {
			return
		}
		if n < 2 || n > len(buf) {
			t.Fatalf("consumed %d of %d bytes", n, len(buf))
		}
		enc, err := core.EncodeAttrs(nil, row.Attrs())
		if err != nil {
			t.Fatalf("accepted row does not re-encode: %v", err)
		}
		if !bytes.Equal(enc, row) {
			t.Fatalf("row %x re-encodes as %x", []byte(row), enc)
		}
		if canon, _ := core.EncodeAttrs(nil, core.AttrRow(buf[:n]).Attrs()); bytes.Equal(canon, buf[:n]) && !bytes.Equal(row, buf[:n]) {
			t.Fatalf("canonical input %x came back as %x", buf[:n], []byte(row))
		}
		again, m, err := core.ParseAttrRow(row)
		if err != nil || m != len(row) || !bytes.Equal(again, row) {
			t.Fatalf("re-parse of %x: %x, %d, %v", []byte(row), []byte(again), m, err)
		}
		a := row.Attrs()
		for _, p := range preds {
			if p.EvalRow(row) != p.Eval(a) {
				t.Fatalf("%v: row and decoded bag disagree", p)
			}
		}
	})
}
