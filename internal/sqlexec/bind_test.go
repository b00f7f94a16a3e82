package sqlexec

import (
	"math/rand"
	"strings"
	"testing"

	"crosse/internal/sesql"
	"crosse/internal/sqlparser"
)

// TestTemplateBindMatchesInlined is the binding property over the parity
// corpus: the template of a query's shape, compiled without its literals
// and bound with them, returns the rows the query compiled with its
// literals inlined returns — the same sequence where ORDER BY is a total
// order.
func TestTemplateBindMatchesInlined(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	slots := 0
	for trial := 0; trial < 6; trial++ {
		db := parityDB(t, rng, 30+rng.Intn(30), 20+rng.Intn(25))
		for q := 0; q < 40; q++ {
			text := genSelect(rng)
			key, lits, ok := sesql.Shape(text)
			if !ok {
				t.Fatalf("no shape for %q", text)
			}
			slots += len(lits.Vals)
			tsel, err := sqlparser.ParseSelectTemplate(key)
			if err != nil {
				t.Fatalf("template %q: %v", key, err)
			}
			sel, err := sqlparser.ParseSelect(text)
			if err != nil {
				t.Fatal(err)
			}
			want, werr := EvalSelectOpts(db, sel, Options{})
			tmpl, gerr := Compile(db, tsel)
			var got *Result
			if gerr == nil {
				got, gerr = tmpl.Bind(lits.Vals).Run()
			}
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%q: inlined err=%v template err=%v", text, werr, gerr)
			}
			if werr != nil {
				continue
			}
			if strings.Join(got.Columns, ",") != strings.Join(want.Columns, ",") {
				t.Fatalf("%q: headers %v != %v", text, got.Columns, want.Columns)
			}
			wr, gr := renderRows(want.Rows), renderRows(got.Rows)
			switch {
			case len(sel.OrderBy) > 0:
				// genSelect ends every ORDER BY in a unique-key chain.
			case sel.Limit != nil || sel.Offset != nil:
				// Any |limit| rows are a right answer: compare counts.
				if len(wr) != len(gr) {
					t.Fatalf("%q: LIMIT row count %d != %d", text, len(gr), len(wr))
				}
				continue
			default:
				wr, gr = sortedCopy(wr), sortedCopy(gr)
			}
			if strings.Join(wr, "\n") != strings.Join(gr, "\n") {
				t.Fatalf("%q:\ninlined:\n%s\ntemplate:\n%s", text, strings.Join(wr, "\n"), strings.Join(gr, "\n"))
			}
		}
	}
	if slots == 0 {
		t.Fatal("the corpus bound no slot")
	}
}

// A template run without binding fails instead of guessing a value.
func TestUnboundTemplateFails(t *testing.T) {
	db := parityDB(t, rand.New(rand.NewSource(1)), 5, 5)
	sel, err := sqlparser.ParseSelectTemplate(`SELECT x.id FROM t1 x WHERE x.a > ?1:int`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(db, sel)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(); err == nil || !strings.Contains(err.Error(), "not bound") {
		t.Errorf("unbound run: err = %v", err)
	}
}

// TestWithTailMatchesCompile: a plan compiled without its ORDER BY /
// LIMIT / OFFSET and given them by WithTail runs exactly as the plan
// compiled with them, and fails exactly when it fails.
func TestWithTailMatchesCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 4; trial++ {
		db := parityDB(t, rng, 30+rng.Intn(30), 20+rng.Intn(25))
		for q := 0; q < 40; q++ {
			text := genSelect(rng)
			sel, err := sqlparser.ParseSelect(text)
			if err != nil {
				t.Fatal(err)
			}
			want, werr := EvalSelectOpts(db, sel, Options{})
			bare := *sel
			bare.OrderBy, bare.Limit, bare.Offset = nil, nil, nil
			var got *Result
			p, gerr := Compile(db, &bare)
			if gerr == nil {
				if p, gerr = p.WithTail(sel); gerr == nil {
					got, gerr = p.Run()
				}
			}
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%q: compiled err=%v, WithTail err=%v", text, werr, gerr)
			}
			if werr == nil && strings.Join(renderRows(got.Rows), " ") != strings.Join(renderRows(want.Rows), " ") {
				t.Fatalf("%q:\nWithTail %v\ncompiled %v", text, renderRows(got.Rows), renderRows(want.Rows))
			}
		}
	}
}
