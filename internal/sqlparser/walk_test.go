package sqlparser

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// Walk visits in pre-order, left to right, and skips the children of a
// node its callback declines.
func TestWalkOrderAndSkip(t *testing.T) {
	e, err := ParseExpr(`CASE a WHEN COUNT(b) THEN UPPER(c) ELSE d END IN (e, -f)`)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	Walk(e, func(x Expr) bool {
		got = append(got, x.SQL())
		_, call := x.(*FuncCall)
		return !call
	})
	want := []string{e.SQL(), "CASE a WHEN COUNT(b) THEN UPPER(c) ELSE d END", "a", "COUNT(b)", "UPPER(c)", "d", "e", "(-f)", "f"}
	if strings.Join(got, " | ") != strings.Join(want, " | ") {
		t.Errorf("visited\n %v\nwant\n %v", got, want)
	}
	if refs := ColRefs(e); len(refs) != 6 {
		t.Errorf("ColRefs found %d references, want 6", len(refs))
	}
}

// FuzzSQLExpr checks the expression parser and the traversal on arbitrary
// text. ParseExpr fails with one of its own "sql: " errors or yields an
// expression whose SQL re-parses to the same text. On that expression,
// rewriting each subtree Walk visits into itself replaces at least once,
// renders the same SQL and leaves the input's nodes untouched.
func FuzzSQLExpr(f *testing.F) {
	for _, s := range exprCorpus {
		f.Add(s)
	}
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 32; i++ {
		f.Add(randExpr(rng, 3))
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := ParseExpr(src)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "sql: ") {
				t.Fatalf("ParseExpr(%q): foreign error %v", src, err)
			}
			return
		}
		text := e.SQL()
		if again, err := ParseExpr(text); err != nil || again.SQL() != text {
			t.Fatalf("%q renders %q, which re-parses to %v (error %v)", src, text, again, err)
		}
		// nodes lists every visited node with its rendering, so that any
		// write into the input (a child slot or a field) shows up.
		nodes := func() []string {
			var out []string
			Walk(e, func(x Expr) bool {
				out = append(out, fmt.Sprintf("%p %s", x, x.SQL()))
				return true
			})
			return out
		}
		before := nodes()
		var subs []Expr
		Walk(e, func(x Expr) bool {
			subs = append(subs, x)
			return len(subs) < 64 // bounds the quadratic checks on large inputs
		})
		for _, sub := range subs {
			target := sub.SQL()
			n := 0
			out := Rewrite(e, func(x Expr) (Expr, bool) {
				if x.SQL() != target {
					return nil, false
				}
				n++
				return sub, true
			})
			if n == 0 {
				t.Fatalf("%q: rewriting %q replaced nothing", text, target)
			}
			if out.SQL() != text {
				t.Fatalf("%q: rewriting %q into itself gave %q", text, target, out.SQL())
			}
			if after := nodes(); strings.Join(after, "\n") != strings.Join(before, "\n") {
				t.Fatalf("%q: rewriting %q modified the input", text, target)
			}
		}
	})
}
