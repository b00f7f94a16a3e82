package sqlparser

import (
	"strings"
	"testing"

	"crosse/internal/sqlval"
)

func TestLexer(t *testing.T) {
	toks, err := LexAll(`SELECT a.b, 'it''s', 3.14, 42 FROM t WHERE x <> 1 -- comment
AND y >= 2 /* block */ || 'z'`)
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tok := range toks {
		texts = append(texts, tok.Text)
	}
	joined := strings.Join(texts, " ")
	for _, want := range []string{"SELECT", "a", ".", "b", "it's", "3.14", "42", "<>", ">=", "||"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing token %q in %q", want, joined)
		}
	}
	if strings.Contains(joined, "comment") || strings.Contains(joined, "block") {
		t.Error("comments must be skipped")
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{"'unterminated", `"unterminated`, "a @ b"} {
		if _, err := LexAll(src); err == nil {
			t.Errorf("LexAll(%q) should fail", src)
		}
	}
}

func TestParseCreateTable(t *testing.T) {
	st, err := Parse(`CREATE TABLE landfill (
		id INT PRIMARY KEY,
		name VARCHAR(64) NOT NULL,
		city TEXT,
		area DOUBLE,
		active BOOLEAN
	)`)
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(*CreateTable)
	if ct.Name != "landfill" || len(ct.Columns) != 5 {
		t.Fatalf("parsed %+v", ct)
	}
	if !ct.Columns[0].PrimaryKey || !ct.Columns[0].NotNull {
		t.Error("PRIMARY KEY implies NOT NULL")
	}
	if ct.Columns[1].Type != sqlval.TypeString || !ct.Columns[1].NotNull {
		t.Error("VARCHAR(64) NOT NULL parse failed")
	}
	if ct.Columns[3].Type != sqlval.TypeFloat {
		t.Error("DOUBLE type parse failed")
	}
}

func TestParseCreateTableIfNotExists(t *testing.T) {
	st, err := Parse(`CREATE TABLE IF NOT EXISTS t (a INT)`)
	if err != nil {
		t.Fatal(err)
	}
	if !st.(*CreateTable).IfNotExists {
		t.Error("IF NOT EXISTS not parsed")
	}
}

func TestParseDropAndIndex(t *testing.T) {
	st, err := Parse(`DROP TABLE IF EXISTS t`)
	if err != nil {
		t.Fatal(err)
	}
	if dt := st.(*DropTable); !dt.IfExists || dt.Name != "t" {
		t.Errorf("%+v", st)
	}
	st2, err := Parse(`CREATE INDEX idx_name ON landfill (name)`)
	if err != nil {
		t.Fatal(err)
	}
	ci := st2.(*CreateIndex)
	if ci.Name != "idx_name" || ci.Table != "landfill" || ci.Column != "name" {
		t.Errorf("%+v", ci)
	}
}

func TestParseInsert(t *testing.T) {
	st, err := Parse(`INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)`)
	if err != nil {
		t.Fatal(err)
	}
	ins := st.(*Insert)
	if len(ins.Columns) != 2 || len(ins.Rows) != 2 || len(ins.Rows[0]) != 2 {
		t.Fatalf("%+v", ins)
	}
	if ins.Rows[1][1].(*Literal).Val.IsNull() != true {
		t.Error("NULL literal")
	}
	// Without column list.
	st2, err := Parse(`INSERT INTO t VALUES (1+2, -3)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.(*Insert).Columns) != 0 {
		t.Error("column list should be empty")
	}
}

func TestParseUpdateDelete(t *testing.T) {
	st, err := Parse(`UPDATE t SET a = a + 1, b = 'x' WHERE id = 3`)
	if err != nil {
		t.Fatal(err)
	}
	up := st.(*Update)
	if len(up.Set) != 2 || up.Where == nil {
		t.Errorf("%+v", up)
	}
	st2, err := Parse(`DELETE FROM t WHERE a IS NOT NULL`)
	if err != nil {
		t.Fatal(err)
	}
	del := st2.(*Delete)
	if del.Where.(*IsNull).Not != true {
		t.Errorf("%+v", del.Where)
	}
}

func TestParsePaperExample41(t *testing.T) {
	// The SQL part of Example 4.1 in the paper.
	sel, err := ParseSelect(`SELECT elem_name, landfill_name
FROM elem_contained
WHERE landfill_name = 'a'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Items) != 2 || sel.From[0].Table != "elem_contained" {
		t.Errorf("%+v", sel)
	}
	be := sel.Where.(*BinExpr)
	if be.Op != OpEq || be.L.(*ColRef).Name != "landfill_name" {
		t.Errorf("%+v", be)
	}
}

func TestParsePaperExample46Skeleton(t *testing.T) {
	// Example 4.6's cleaned SQL (tags removed by the SESQL scanner).
	sel, err := ParseSelect(`SELECT Elecond1.landfill_name AS l_name1,
 Elecond2.landfill_name AS l_name2, Elecond1.elem_name
FROM elem_contained AS Elecond1, elem_contained AS Elecond2
WHERE Elecond1.elem_name <> Elecond2.elem_name AND
 Elecond1.elem_name = Elecond2.elem_name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.From) != 2 || sel.From[0].Alias != "Elecond1" {
		t.Errorf("%+v", sel.From)
	}
	if sel.Items[0].Alias != "l_name1" {
		t.Errorf("%+v", sel.Items)
	}
	and := sel.Where.(*BinExpr)
	if and.Op != OpAnd {
		t.Errorf("top-level op %v", and.Op)
	}
}

func TestParseJoins(t *testing.T) {
	sel, err := ParseSelect(`SELECT l.name, e.elem_name
FROM landfill AS l
JOIN elem_contained e ON l.name = e.landfill_name
LEFT JOIN analysis a ON a.landfill = l.name
CROSS JOIN lab`)
	if err != nil {
		t.Fatal(err)
	}
	tr := sel.From[0]
	if len(tr.Joins) != 3 {
		t.Fatalf("joins = %d", len(tr.Joins))
	}
	if tr.Joins[0].Kind != JoinInner || tr.Joins[0].Alias != "e" {
		t.Errorf("%+v", tr.Joins[0])
	}
	if tr.Joins[1].Kind != JoinLeft || tr.Joins[1].On == nil {
		t.Errorf("%+v", tr.Joins[1])
	}
	if tr.Joins[2].Kind != JoinCross || tr.Joins[2].On != nil {
		t.Errorf("%+v", tr.Joins[2])
	}
}

func TestParseGroupHavingOrderLimit(t *testing.T) {
	sel, err := ParseSelect(`SELECT city, COUNT(*) AS n, AVG(area)
FROM landfill
WHERE active = TRUE
GROUP BY city
HAVING COUNT(*) > 2
ORDER BY n DESC, city ASC
LIMIT 10 OFFSET 5`)
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Items[1].Expr.(*FuncCall).Star {
		t.Error("COUNT(*)")
	}
	if len(sel.GroupBy) != 1 || sel.Having == nil {
		t.Error("group/having")
	}
	if len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Errorf("%+v", sel.OrderBy)
	}
	if sel.Limit.(*Literal).Val.Int() != 10 || sel.Offset.(*Literal).Val.Int() != 5 {
		t.Error("limit/offset")
	}
}

func TestParseSelectStarForms(t *testing.T) {
	sel, err := ParseSelect(`SELECT *, t.*, a AS x FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Items[0].Star || sel.Items[0].Qualifier != "" {
		t.Error("bare star")
	}
	if !sel.Items[1].Star || sel.Items[1].Qualifier != "t" {
		t.Error("qualified star")
	}
	if sel.Items[2].Alias != "x" {
		t.Error("alias")
	}
}

// exprCorpus is the expression parser's test corpus; FuzzSQLExpr seeds
// from it.
var exprCorpus = []string{
	`a + b * c - d / e % f`,
	`a || 'suffix'`,
	`x IN (1, 2, 3)`,
	`x NOT IN ('a')`,
	`x BETWEEN 1 AND 10`,
	`x NOT BETWEEN 1 AND 10`,
	`name LIKE 'Mer%'`,
	`name NOT LIKE '%x%'`,
	`a IS NULL OR b IS NOT NULL`,
	`NOT (a = 1 AND b = 2)`,
	`CASE WHEN a > 0 THEN 'pos' WHEN a < 0 THEN 'neg' ELSE 'zero' END`,
	`CASE a WHEN 1 THEN 'one' ELSE 'many' END`,
	`COALESCE(a, b, 'dflt')`,
	`COUNT(DISTINCT x)`,
	`UPPER(LOWER(name))`,
	`-x + 3`,
}

func TestParseExpressions(t *testing.T) {
	for _, src := range exprCorpus {
		if _, err := ParseExpr(src); err != nil {
			t.Errorf("ParseExpr(%q): %v", src, err)
		}
	}
}

func TestExprPrecedence(t *testing.T) {
	e, err := ParseExpr(`a OR b AND c`)
	if err != nil {
		t.Fatal(err)
	}
	or := e.(*BinExpr)
	if or.Op != OpOr {
		t.Fatal("top must be OR")
	}
	if or.R.(*BinExpr).Op != OpAnd {
		t.Error("AND binds tighter than OR")
	}
	e2, err := ParseExpr(`1 + 2 * 3`)
	if err != nil {
		t.Fatal(err)
	}
	add := e2.(*BinExpr)
	if add.Op != OpAdd || add.R.(*BinExpr).Op != OpMul {
		t.Error("* binds tighter than +")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC a FROM t",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"INSERT t VALUES (1)",
		"INSERT INTO t VALUES 1",
		"CREATE TABLE t",
		"CREATE TABLE t (a BLOB)",
		"CREATE VIEW v AS SELECT 1",
		"UPDATE t WHERE a = 1",
		"DELETE t",
		"SELECT a FROM t GROUP",
		"SELECT CASE END",
		"SELECT a FROM t; extra",
		"SELECT x BETWEEN 1 FROM t",
		"SELECT a b c FROM t",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestSQLRoundTrip(t *testing.T) {
	queries := []string{
		`SELECT elem_name, landfill_name FROM elem_contained WHERE (landfill_name = 'a')`,
		`SELECT DISTINCT a AS x, COUNT(*) FROM t AS u JOIN v ON (u.id = v.id) WHERE ((a > 1) AND (b IS NULL)) GROUP BY a HAVING (COUNT(*) > 2) ORDER BY x DESC LIMIT 5 OFFSET 2`,
		`SELECT * FROM t LEFT JOIN s ON (t.a = s.b)`,
		`SELECT CASE WHEN (a = 1) THEN 'x' ELSE 'y' END AS c FROM t`,
		`SELECT t.* FROM t CROSS JOIN u`,
		`SELECT (a IN (1, 2)) AS m, (x NOT BETWEEN 1 AND 2) AS n FROM t`,
	}
	for _, src := range queries {
		sel1, err := ParseSelect(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		printed := SelectSQL(sel1)
		sel2, err := ParseSelect(printed)
		if err != nil {
			t.Fatalf("reparse %q: %v", printed, err)
		}
		if SelectSQL(sel2) != printed {
			t.Errorf("fixpoint:\n first %s\nsecond %s", printed, SelectSQL(sel2))
		}
	}
}

func TestStatementSemicolon(t *testing.T) {
	if _, err := Parse("SELECT 1;"); err != nil {
		t.Errorf("trailing semicolon should parse: %v", err)
	}
}

func TestQuotedIdentifier(t *testing.T) {
	sel, err := ParseSelect(`SELECT "select" FROM "from"`)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Items[0].Expr.(*ColRef).Name != "select" || sel.From[0].Table != "from" {
		t.Errorf("%+v", sel)
	}
}
