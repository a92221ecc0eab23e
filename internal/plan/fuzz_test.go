package plan

import (
	"slices"
	"strings"
	"testing"

	"metricindex/internal/core"
)

var fuzzSeeds = []string{
	`category = "mid"`,
	`level >= 2 AND score < 90`,
	`(a < 1 OR b > 2) AND c != 3`,
	`tags IN ("hot", "sale")`,
	`x IN (1, 2.5, -3e2)`,
	`f = "quote\"backslash\\"`,
	`LEVEL = 1 and level = 2 or level = 3`,
	"price <",
	"price IN ()",
	`name = "unterminated`,
	"((((((((((a=1))))))))))",
	"a.b-c = 1",
	"!= = !=",
	"\x00\xff",
}

func fuzzBags() []core.Attrs {
	return []core.Attrs{
		nil,
		{},
		{
			"category": core.StringValue("mid"),
			"level":    core.IntValue(7),
			"score":    core.FloatValue(41.5),
			"tags":     core.TagsValue("hot", "sale"),
		},
		{"a": core.IntValue(-1), "b": core.FloatValue(2.5), "c": core.IntValue(3)},
		{"x": core.FloatValue(2.5), "f": core.StringValue(`quote"backslash\`)},
	}
}

// FuzzPredicateParse: for any input that parses, the canonical form
// must itself parse, be a fixpoint of canonicalization, and evaluate
// identically to the original — the properties the answer cache needs
// from String() as a key component. Parse must never panic.
func FuzzPredicateParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	bags := fuzzBags()
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		s := p.String()
		p2, err := Parse(s)
		if err != nil {
			t.Fatalf("canonical form does not reparse: %q -> %q: %v", src, s, err)
		}
		if s2 := p2.String(); s2 != s {
			t.Fatalf("canonical form not a fixpoint: %q -> %q -> %q", src, s, s2)
		}
		for i, bag := range bags {
			if p.Eval(bag) != p2.Eval(bag) {
				t.Fatalf("reparsed %q disagrees with %q on bag %d", s, src, i)
			}
		}
	})
}

// FuzzPredicateEval: evaluation on encoded rows is total and agrees
// with the map semantics — any parsed predicate against the row of any
// bag yields the boolean refEval gives on the bag itself, never a
// panic, and the empty row (nil or encoded) matches nothing.
func FuzzPredicateEval(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s, int64(7), 41.5, "mid")
	}
	f.Add(`score = 0`, int64(0), 0.0, "")
	f.Add(`level < 3 OR tags = "x"`, int64(-1), -1e308, "x")
	f.Fuzz(func(t *testing.T, src string, iv int64, fv float64, sv string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		bag := core.Attrs{
			"category": core.StringValue(sv),
			"level":    core.IntValue(iv),
			"score":    core.FloatValue(fv),
			"tags":     core.TagsValue(sv, "hot"),
			sv:         core.IntValue(iv),
		}
		row, err := core.EncodeAttrs(nil, bag)
		if err != nil {
			return // over the encoding's limits: no dataset can hold it
		}
		if got, want := p.EvalRow(row), refEval(&p.root, bag); got != want {
			t.Fatalf("EvalRow(%q) = %v on %v, map semantics say %v", src, got, bag, want)
		}
		if p.EvalRow(nil) || p.EvalRow(core.AttrRow{0, 0}) {
			t.Fatalf("%q matched the empty row", src)
		}
	})
}

// refEval is the map-bag evaluator the row evaluator replaced, kept as
// the reference semantics: a leaf over a missing field or a mismatched
// type is false; numbers compare in the widened float64 domain; tag
// equality is containment.
func refEval(n *node, a core.Attrs) bool {
	switch n.kind {
	case nodeAnd:
		for i := range n.kids {
			if !refEval(&n.kids[i], a) {
				return false
			}
		}
		return true
	case nodeOr:
		for i := range n.kids {
			if refEval(&n.kids[i], a) {
				return true
			}
		}
		return false
	}
	v, ok := a[n.field]
	if !ok {
		return false
	}
	eq := func(lit *operand) bool {
		if lit.isNum {
			x, numeric := v.Numeric()
			return numeric && x == lit.num
		}
		switch v.Kind() {
		case core.AttrString:
			return v.Str() == lit.str
		case core.AttrTags:
			return slices.Contains(v.Tags(), lit.str)
		}
		return false
	}
	switch n.op {
	case opIn:
		for i := range n.set {
			if eq(&n.set[i]) {
				return true
			}
		}
		return false
	case opEq:
		return eq(&n.val)
	case opNe:
		return !eq(&n.val)
	}
	if n.val.isNum {
		x, numeric := v.Numeric()
		return numeric && matchCmp(n.op, cmpFloat(x, n.val.num))
	}
	return v.Kind() == core.AttrString && matchCmp(n.op, strings.Compare(v.Str(), n.val.str))
}
