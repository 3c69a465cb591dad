package sql

import (
	"strings"
	"testing"

	"qcc/internal/plan"
	"qcc/internal/qir"
	"qcc/internal/rt"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

func testCatalog(t *testing.T) *rt.Catalog {
	t.Helper()
	m := vm.New(vm.Config{Arch: vt.VX64, MemSize: 8 << 20})
	db := rt.NewDB(m)
	cat := rt.NewCatalog(db)
	cat.CreateTable("t", 4,
		rt.ColSpec{Name: "a", Type: qir.I64},
		rt.ColSpec{Name: "b", Type: qir.I32},
		rt.ColSpec{Name: "s", Type: qir.Str},
		rt.ColSpec{Name: "d", Type: qir.I128},
		rt.ColSpec{Name: "f", Type: qir.F64},
	)
	cat.CreateTable("u", 4,
		rt.ColSpec{Name: "a", Type: qir.I64},
		rt.ColSpec{Name: "x", Type: qir.Str},
	)
	return cat
}

func mustParse(t *testing.T, q string) plan.Node {
	t.Helper()
	n, err := Parse(q, testCatalog(t))
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	return n
}

func TestParseShapes(t *testing.T) {
	cases := map[string]func(n plan.Node) bool{
		"SELECT * FROM t": func(n plan.Node) bool {
			_, ok := n.(*plan.Scan)
			return ok
		},
		"SELECT a, b FROM t": func(n plan.Node) bool {
			p, ok := n.(*plan.Project)
			return ok && len(p.Exprs) == 2
		},
		"SELECT a FROM t WHERE b > 3 AND s LIKE 'x%'": func(n plan.Node) bool {
			_, ok := n.(*plan.Project)
			return ok
		},
		"SELECT b, COUNT(*) FROM t GROUP BY b": func(n plan.Node) bool {
			p, ok := n.(*plan.Project)
			if !ok {
				return false
			}
			_, ok = p.Input.(*plan.GroupBy)
			return ok
		},
		"SELECT a FROM t ORDER BY a DESC LIMIT 3": func(n plan.Node) bool {
			l, ok := n.(*plan.Limit)
			if !ok || l.N != 3 {
				return false
			}
			_, ok = l.Input.(*plan.Sort)
			return ok
		},
		"SELECT t.a, x FROM t JOIN u ON t.a = u.a": func(n plan.Node) bool {
			p, ok := n.(*plan.Project)
			if !ok {
				return false
			}
			_, ok = p.Input.(*plan.HashJoin)
			return ok
		},
	}
	for q, check := range cases {
		n := mustParse(t, q)
		if !check(n) {
			t.Errorf("%q: unexpected plan\n%s", q, plan.Dump(n))
		}
	}
}

func TestParseDecimalLiteralScale(t *testing.T) {
	n := mustParse(t, "SELECT a FROM t WHERE d > 12.34")
	// The decimal literal must scale to cents (1234) and coerce col d.
	found := false
	var walk func(plan.Node)
	walk = func(x plan.Node) {
		if s, ok := x.(*plan.Select); ok {
			plan.Walk(s.Pred, func(e plan.Expr) {
				if c, ok := e.(*plan.ConstDec); ok && c.V.Lo == 1234 {
					found = true
				}
			})
		}
		for _, ch := range x.Children() {
			walk(ch)
		}
	}
	walk(n)
	if !found {
		t.Error("decimal literal 12.34 did not scale to 1234 cents")
	}
}

func TestParseCoercion(t *testing.T) {
	// i32 col compared against i64 literal: the column must widen.
	mustParse(t, "SELECT a FROM t WHERE b = 3")
	// i64 col against decimal col via arithmetic.
	mustParse(t, "SELECT d + 1 FROM t")
	// float arithmetic with int literal.
	mustParse(t, "SELECT f * 2 FROM t")
}

func TestParseCase(t *testing.T) {
	mustParse(t, "SELECT CASE WHEN b > 0 THEN a ELSE 0 END FROM t")
	mustParse(t, "SELECT SUM(CASE WHEN s LIKE 'a%' THEN 1 ELSE 0 END) FROM t")
}

func TestParseErrors(t *testing.T) {
	cat := testCatalog(t)
	for _, bad := range []string{
		"",
		"SELECT",
		"SELECT a",
		"SELECT a FROM nope",
		"SELECT nope FROM t",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t WHERE s > 3",
		"SELECT a FROM t GROUP BY",
		"SELECT a, COUNT(*) FROM t GROUP BY b ORDER", // a is not a group key / trailing
		"SELECT a FROM t LIMIT x",
		"SELECT a FROM t JOIN u ON a",
		"SELECT a FROM t WHERE s LIKE 3",
	} {
		if _, err := Parse(bad, cat); err == nil {
			t.Errorf("no error for %q", bad)
		}
	}
}

// TestParseStarAggregate pins that only COUNT accepts *: the other
// aggregates have no argument to type their result and must be rejected
// with an error rather than crash while the plan schema is built.
func TestParseStarAggregate(t *testing.T) {
	cat := testCatalog(t)
	for _, bad := range []string{
		"SELECT 1, SUM(*) FROM t",
		"SELECT AVG(*) FROM t",
		"SELECT b, MIN(*) FROM t GROUP BY b",
		"SELECT max(*) FROM t",
	} {
		if _, err := Parse(bad, cat); err == nil || !strings.Contains(err.Error(), "only COUNT takes *") {
			t.Errorf("%q: err = %v, want the COUNT-only error", bad, err)
		}
	}
	if _, err := Parse("SELECT COUNT(*) FROM t", cat); err != nil {
		t.Errorf("COUNT(*) rejected: %v", err)
	}
}

func TestParseAmbiguousColumn(t *testing.T) {
	// Column a exists in both t and u: unqualified reference after a join
	// must fail, qualified must work.
	cat := testCatalog(t)
	if _, err := Parse("SELECT a FROM t JOIN u ON t.a = u.a", cat); err == nil {
		t.Error("ambiguous column accepted")
	}
	if _, err := Parse("SELECT t.a FROM t JOIN u ON t.a = u.a", cat); err != nil {
		t.Errorf("qualified column rejected: %v", err)
	}
}

func TestLexStringsAndOperators(t *testing.T) {
	toks, err := lex("SELECT 'a b''x' <= <> != 1.5")
	_ = toks
	// Note: embedded quotes are not supported; the first string ends at
	// the second quote. This just must not crash or mis-tokenize ops.
	if err != nil {
		t.Fatal(err)
	}
	has := func(txt string) bool {
		for _, tk := range toks {
			if tk.text == txt {
				return true
			}
		}
		return false
	}
	for _, op := range []string{"<=", "<>", "!="} {
		if !has(op) {
			t.Errorf("operator %s not lexed", op)
		}
	}
	if !strings.Contains("SELECT", "SELECT") {
		t.Fatal()
	}
}
