package sesql

import (
	"reflect"
	"testing"

	"crosse/internal/sqlparser"
	"crosse/internal/sqlval"
)

// shapeSeeds are the six Sec. IV examples plus queries from the sqlexec
// parity corpus, with literals in every clause a shape treats differently.
var shapeSeeds = []string{
	ex41, ex42, ex43, ex44, ex45, ex46,
	`SELECT x.id, x.b FROM t1 x WHERE x.id = 7`,
	`SELECT x.id FROM t1 x WHERE x.id = 7.0`,
	`SELECT y.k, y.v FROM t2 y WHERE y.k = 's3'`,
	`SELECT x.id, y.k FROM t1 x JOIN t2 y ON x.b = y.k AND y.v > 2 WHERE y.k = 's1' AND x.id = 3`,
	`SELECT COUNT(*) FROM t1 x, t2 y WHERE x.b = y.k AND y.k = 's2'`,
	`SELECT 'tag' AS t, a FROM t WHERE a IN (1, 2, 3) AND b BETWEEN 1.5 AND 2e3 ORDER BY a LIMIT 5 OFFSET 1`,
	`SELECT g, SUM(n) FROM s WHERE name LIKE 'a%' OR name NOT LIKE ('b' || 'c') GROUP BY g HAVING SUM(n) > 10 ORDER BY g`,
	`SELECT a FROM t WHERE ${ a = 'it''s' : c1 } AND b = -4 ENRICH REPLACEVARIABLE(c1, a, p)`,
	`SELECT a FROM t LEFT JOIN u ON t.a = u.a AND u.z = 'q', v WHERE v.w = 1`,
	`SELECT a FROM t -- it's a comment
WHERE a = 'x'`,
	`SELECT "it's" FROM t WHERE a = 'x'`,
	`SELECT a FROM t WHERE a = 1${ b = 2 : c}`,
	`SELECT a FROM t WHERE ${ a = 1 }`,
	`SELECT a FROM t WHERE ${ a = ?1:int : c }`,
	`SELECT a FROM t WHERE a = 99999999999999999999`,
}

// parseShaped parses src the way the enrichment pipeline does: through its
// shape and literal vector, falling back to the text itself when the text
// has no safe shape or its shape does not parse.
func parseShaped(src string) (*Query, error) {
	key, lits, ok := Shape(src)
	if !ok {
		return Parse(src)
	}
	tmpl, err := ParseTemplate(key)
	if err != nil {
		return Parse(src)
	}
	return bindQuery(tmpl, lits), nil
}

// bindQuery inlines a literal vector into a template: every slot becomes
// its literal and the texts splice back each literal's source spelling.
func bindQuery(tmpl *Query, lits Literals) *Query {
	splice := func(text string) string { return sqlparser.SplitParams(text).Splice(lits.Texts) }
	bind := func(e sqlparser.Expr) sqlparser.Expr { return inline(e, lits.Vals) }
	sel := *tmpl.Select
	sel.Where, sel.Having = bind(sel.Where), bind(sel.Having)
	sel.From = append([]sqlparser.TableRef(nil), sel.From...)
	for i := range sel.From {
		sel.From[i].Joins = append([]sqlparser.Join(nil), sel.From[i].Joins...)
		for j := range sel.From[i].Joins {
			sel.From[i].Joins[j].On = bind(sel.From[i].Joins[j].On)
		}
	}
	q := &Query{SQL: splice(tmpl.SQL), Select: &sel, Conds: map[string]*CondTag{}, Enrichments: tmpl.Enrichments}
	for id, tag := range tmpl.Conds {
		q.Conds[id] = &CondTag{ID: id, Text: splice(tag.Text), Expr: bind(tag.Expr)}
	}
	return q
}

// inline returns e with every slot replaced by its literal.
func inline(e sqlparser.Expr, vals []sqlval.Value) sqlparser.Expr {
	list := func(es []sqlparser.Expr) []sqlparser.Expr {
		if es == nil {
			return nil
		}
		out := make([]sqlparser.Expr, len(es))
		for i, x := range es {
			out[i] = inline(x, vals)
		}
		return out
	}
	switch ex := e.(type) {
	case *sqlparser.Param:
		return &sqlparser.Literal{Val: vals[ex.Index]}
	case *sqlparser.BinExpr:
		return &sqlparser.BinExpr{Op: ex.Op, L: inline(ex.L, vals), R: inline(ex.R, vals)}
	case *sqlparser.UnaryExpr:
		return &sqlparser.UnaryExpr{Op: ex.Op, E: inline(ex.E, vals)}
	case *sqlparser.IsNull:
		return &sqlparser.IsNull{E: inline(ex.E, vals), Not: ex.Not}
	case *sqlparser.InList:
		return &sqlparser.InList{E: inline(ex.E, vals), Not: ex.Not, List: list(ex.List)}
	case *sqlparser.Between:
		return &sqlparser.Between{E: inline(ex.E, vals), Not: ex.Not, Lo: inline(ex.Lo, vals), Hi: inline(ex.Hi, vals)}
	case *sqlparser.FuncCall:
		return &sqlparser.FuncCall{Name: ex.Name, Star: ex.Star, Distinct: ex.Distinct, Args: list(ex.Args)}
	case *sqlparser.CaseExpr:
		ce := &sqlparser.CaseExpr{Operand: inline(ex.Operand, vals), Else: inline(ex.Else, vals)}
		for _, w := range ex.Whens {
			ce.Whens = append(ce.Whens, sqlparser.WhenClause{Cond: inline(w.Cond, vals), Then: inline(w.Then, vals)})
		}
		return ce
	}
	return e
}

// FuzzSESQLShape checks the shape path against Parse: for any input,
// shaping, parsing the shape and binding the literals fails exactly when
// Parse fails, and otherwise yields the same cleaned SQL, syntax tree,
// tagged conditions and enrichments.
func FuzzSESQLShape(f *testing.F) {
	for _, s := range shapeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		want, werr := Parse(src)
		got, gerr := parseShaped(src)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("Parse error %v, shape path error %v for %q", werr, gerr, src)
		}
		if werr != nil {
			return
		}
		if got.SQL != want.SQL {
			t.Errorf("cleaned SQL %q, want %q", got.SQL, want.SQL)
		}
		if !reflect.DeepEqual(got.Select, want.Select) {
			t.Errorf("select %s, want %s", sqlparser.SelectSQL(got.Select), sqlparser.SelectSQL(want.Select))
		}
		if !reflect.DeepEqual(got.Conds, want.Conds) || !reflect.DeepEqual(got.Enrichments, want.Enrichments) {
			t.Errorf("conditions/enrichments differ for %q", src)
		}
	})
}

func TestShapeKeys(t *testing.T) {
	cases := []struct {
		src, key string
		vals     []sqlval.Value
	}{
		{ex41, "SELECT elem_name, landfill_name\nFROM elem_contained\nWHERE landfill_name = ?1:str\nENRICH\nSCHEMAEXTENSION( elem_name, dangerLevel)",
			[]sqlval.Value{sqlval.NewString("a")}},
		{`SELECT 'h', a FROM t JOIN u ON u.x = 2.5 WHERE ${a = 'x' : c} AND b IN (1, 2) AND n LIKE 'p%' GROUP BY a HAVING COUNT(*) > 3 ORDER BY 1 LIMIT 4`,
			`SELECT 'h', a FROM t JOIN u ON u.x = ?1:float WHERE ${a = ?2:str : c} AND b IN (?3:int, ?4:int) AND n LIKE 'p%' GROUP BY a HAVING COUNT(*) > ?5:int ORDER BY 1 LIMIT 4`,
			[]sqlval.Value{sqlval.NewFloat(2.5), sqlval.NewString("x"), sqlval.NewInt(1), sqlval.NewInt(2), sqlval.NewInt(3)}},
		{`SELECT a FROM t`, `SELECT a FROM t`, nil},
	}
	for _, c := range cases {
		key, lits, ok := Shape(c.src)
		if !ok || key != c.key || !reflect.DeepEqual(lits.Vals, c.vals) {
			t.Errorf("Shape(%q) = %q, %v, %v; want %q, %v", c.src, key, lits.Vals, ok, c.key, c.vals)
		}
	}
	for _, src := range []string{
		"SELECT a FROM t /* c */ WHERE a = 1",
		`SELECT "it's" FROM t WHERE a = 1`,
		`SELECT a FROM t WHERE a = 1${2 = 2 : c}`, // 12 straddles the tag
		`SELECT a FROM t WHERE a = 'x`,
	} {
		if _, _, ok := Shape(src); ok {
			t.Errorf("Shape(%q) should decline", src)
		}
	}
	// Texts differing only in slotted literals share a key.
	k1, _, _ := Shape(`SELECT a FROM t WHERE a = 'x' AND b = 1`)
	k2, _, _ := Shape(`SELECT a FROM t WHERE a = 'yy' AND b = 22`)
	if k1 != k2 {
		t.Errorf("keys differ: %q vs %q", k1, k2)
	}
}

func TestShapeSeedsMatchParse(t *testing.T) {
	for _, s := range shapeSeeds {
		want, werr := Parse(s)
		got, gerr := parseShaped(s)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%q: Parse error %v, shape path error %v", s, werr, gerr)
		}
		if werr == nil && (got.SQL != want.SQL || !reflect.DeepEqual(got.Select, want.Select) || !reflect.DeepEqual(got.Conds, want.Conds)) {
			t.Errorf("%q: shape path differs from Parse", s)
		}
	}
}
