package plan

import (
	"strings"
	"testing"

	"metricindex/internal/core"
)

func mustParse(t *testing.T, src string) *Predicate {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return p
}

func sampleBag() core.Attrs {
	return core.Attrs{
		"category": core.StringValue("mid"),
		"level":    core.IntValue(7),
		"score":    core.FloatValue(41.5),
		"tags":     core.TagsValue("hot", "sale"),
	}
}

func TestParseEval(t *testing.T) {
	bag := sampleBag()
	cases := []struct {
		src  string
		want bool
	}{
		{`category = "mid"`, true},
		{`category = mid`, true}, // bareword value
		{`category != "mid"`, false},
		{`category = "rare"`, false},
		{`level = 7`, true},
		{`level < 7`, false},
		{`level <= 7`, true},
		{`level > 6.5`, true}, // int widens to float
		{`score >= 41.5`, true},
		{`score < 41.5`, false},
		{`tags = "hot"`, true}, // tag equality = contains
		{`tags = "cold"`, false},
		{`tags IN ("cold", "sale")`, true}, // IN over tags = contains-any
		{`level IN (1, 2, 7)`, true},
		{`level IN (1, 2, 3)`, false},
		{`category IN ("rare", "mid")`, true},
		{`category = "mid" AND level > 5`, true},
		{`category = "mid" AND level > 8`, false},
		{`level > 8 OR score < 50`, true},
		{`(level > 8 OR score > 50) AND tags = "hot"`, false},
		{`missing = 1`, false},          // absent field never matches
		{`missing != 1`, false},         // even negated: predicates are over present fields
		{`category > 3`, false},         // type mismatch (string vs number)
		{`level = "seven"`, false},      // type mismatch (number vs string)
		{`AND = 1 OR level = 7`, false}, // never parses — see TestParseErrors
	}
	for _, c := range cases {
		p, err := Parse(c.src)
		if err != nil {
			// The last case is a deliberate parse failure; everything
			// else must parse.
			if strings.Contains(c.src, `AND = 1`) {
				continue
			}
			t.Fatalf("Parse(%q): %v", c.src, err)
		}
		if got := p.EvalRow(rowOf(bag)); got != c.want {
			t.Errorf("EvalRow(%q) = %v, want %v", c.src, got, c.want)
		}
		if got := p.Eval(bag); got != c.want {
			t.Errorf("Eval(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestEvalNilAndEmptyBags(t *testing.T) {
	p := mustParse(t, `category = "mid" OR level < 3`)
	if p.Eval(nil) {
		t.Error("nil bag matched")
	}
	if p.Eval(core.Attrs{}) {
		t.Error("empty bag matched")
	}
	if p.EvalRow(nil) || p.EvalRow(core.AttrRow{0, 0}) {
		t.Error("empty row matched")
	}
}

// TestEvalOverLimitBag: a bag the attrs encoding cannot represent —
// which no dataset can hold — matches nothing through Eval.
func TestEvalOverLimitBag(t *testing.T) {
	p := mustParse(t, `level = 7`)
	bag := core.Attrs{"level": core.IntValue(7), "name": core.StringValue(strings.Repeat("x", 70000))}
	if p.Eval(bag) {
		t.Fatal("over-limit bag matched")
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"   ",
		"price <",
		"price 10",
		"= 10",
		"price < 10 AND",
		"price IN ()",
		"price IN (1, 2",
		"(price < 10",
		"price < 10)",
		`name = "unterminated`,
		"AND = 1",
		"a = 1 b = 2",
		"price < NaN AND price < nan(",
		strings.Repeat("(", 100) + "a=1" + strings.Repeat(")", 100), // beyond maxParseDepth
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

// TestStringRoundTrip: the canonical rendering must be a fixpoint of
// the parser — Parse(p.String()).String() == p.String() — and the
// reparsed predicate must evaluate identically. This is what makes the
// canonical string safe as an answer-cache key component.
func TestStringRoundTrip(t *testing.T) {
	bags := []core.Attrs{
		nil,
		sampleBag(),
		{"category": core.StringValue("rare"), "level": core.IntValue(0)},
		{"weird \"name\"": core.StringValue("a\\b"), "score": core.FloatValue(-0.5)},
	}
	for _, src := range []string{
		`category = "mid"`,
		`category=mid`,
		`a < 1 AND b > 2 AND c != 3`,
		`a < 1 OR b > 2 AND c <= 3`,      // precedence: OR(a, AND(b, c))
		`(a < 1 OR b > 2) AND c >= 3`,    // explicit grouping must survive
		`tags IN ("hot", "sale", "x y")`, // quoted value with a space
		`f = "quote\"backslash\\"`,
		`score = -12.25 OR score = 1e9`,
		`LEVEL = 1 and level = 2 or level = 3`, // keyword case-insensitivity
	} {
		p := mustParse(t, src)
		s := p.String()
		p2, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(String(%q)) = Parse(%q): %v", src, s, err)
		}
		if s2 := p2.String(); s2 != s {
			t.Errorf("String not a fixpoint: %q -> %q -> %q", src, s, s2)
		}
		for i, bag := range bags {
			if p.Eval(bag) != p2.Eval(bag) {
				t.Errorf("%q: reparsed predicate disagrees on bag %d", src, i)
			}
		}
	}
}

// TestPredicateEvalZeroAlloc is the runtime witness behind the
// //metriclint:noalloc markers on the eval path: evaluating a compiled
// predicate on an encoded row — every leaf type, both connectives, a
// missing field — allocates nothing, so probe-filter accept callbacks
// cost no garbage per candidate.
func TestPredicateEvalZeroAlloc(t *testing.T) {
	p := mustParse(t,
		`(category IN ("rare", "mid") AND level >= 2 AND score < 90) OR tags = "hot" OR name != "x" OR category < "m"`)
	row := rowOf(sampleBag())
	var sink bool
	if avg := testing.AllocsPerRun(1000, func() { sink = p.EvalRow(row) }); avg != 0 {
		t.Fatalf("EvalRow allocates %.1f times per run, want 0", avg)
	}
	_ = sink
}
