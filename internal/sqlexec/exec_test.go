package sqlexec

import (
	"fmt"
	"strings"
	"testing"

	"crosse/internal/oracle"
	"crosse/internal/sqldb"
	"crosse/internal/sqlval"
)

// mustExec runs a statement and fails the test on error.
func mustExec(t *testing.T, db *sqldb.Database, sql string) *Result {
	t.Helper()
	r, err := Exec(db, sql)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return r
}

// mustOracle runs a SELECT through the SQL oracle
// (internal/oracle), the expected answer for the compiled plans.
func mustOracle(t *testing.T, db *sqldb.Database, sql string) *oracle.Answer {
	t.Helper()
	r, err := oracle.SQL(db, mustParseSelect(t, sql))
	if err != nil {
		t.Fatalf("oracle %q: %v", sql, err)
	}
	return r
}

func sampleDB(t *testing.T) *sqldb.Database {
	t.Helper()
	db := sqldb.NewDatabase()
	mustExec(t, db, `CREATE TABLE landfill (name TEXT PRIMARY KEY, city TEXT, area DOUBLE, active BOOLEAN)`)
	mustExec(t, db, `CREATE TABLE elem_contained (elem_name TEXT, landfill_name TEXT, amount DOUBLE)`)
	mustExec(t, db, `INSERT INTO landfill VALUES
		('a', 'Torino', 120.5, TRUE),
		('b', 'Milano', 80.0, TRUE),
		('c', 'Torino', 45.2, FALSE),
		('d', 'Roma', NULL, TRUE)`)
	mustExec(t, db, `INSERT INTO elem_contained VALUES
		('Mercury', 'a', 12.1),
		('Lead',    'a', 30.0),
		('Zinc',    'a', 5.5),
		('Mercury', 'b', 7.3),
		('Gold',    'c', 0.4),
		('Lead',    'c', 11.0)`)
	return db
}

func rowsAsStrings(r *Result) []string {
	var out []string
	for _, row := range r.Rows {
		var parts []string
		for _, v := range row {
			parts = append(parts, v.String())
		}
		out = append(out, strings.Join(parts, "|"))
	}
	return out
}

func TestSelectBasicWhere(t *testing.T) {
	db := sampleDB(t)
	r := mustExec(t, db, `SELECT elem_name, landfill_name FROM elem_contained WHERE landfill_name = 'a'`)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(r.Rows))
	}
	if r.Columns[0] != "elem_name" || r.Columns[1] != "landfill_name" {
		t.Errorf("columns = %v", r.Columns)
	}
}

func TestSelectStar(t *testing.T) {
	db := sampleDB(t)
	r := mustExec(t, db, `SELECT * FROM landfill`)
	if len(r.Columns) != 4 || len(r.Rows) != 4 {
		t.Errorf("%v x %d", r.Columns, len(r.Rows))
	}
}

func TestSelectQualifiedStar(t *testing.T) {
	db := sampleDB(t)
	r := mustExec(t, db, `SELECT l.* FROM landfill l JOIN elem_contained e ON l.name = e.landfill_name`)
	if len(r.Columns) != 4 {
		t.Errorf("columns = %v", r.Columns)
	}
	if len(r.Rows) != 6 {
		t.Errorf("rows = %d, want 6", len(r.Rows))
	}
}

func TestSelectExpressionsAndAliases(t *testing.T) {
	db := sampleDB(t)
	r := mustExec(t, db, `SELECT name, area * 2 AS double_area, UPPER(city) FROM landfill WHERE name = 'a'`)
	if r.Columns[1] != "double_area" {
		t.Errorf("alias: %v", r.Columns)
	}
	if r.Rows[0][1].Float() != 241.0 {
		t.Errorf("expr: %v", r.Rows[0][1])
	}
	if r.Rows[0][2].Str() != "TORINO" {
		t.Errorf("func: %v", r.Rows[0][2])
	}
}

func TestNullComparisonsAre3VL(t *testing.T) {
	db := sampleDB(t)
	// d has NULL area: neither > nor <= matches.
	r1 := mustExec(t, db, `SELECT name FROM landfill WHERE area > 50`)
	r2 := mustExec(t, db, `SELECT name FROM landfill WHERE area <= 50`)
	if len(r1.Rows)+len(r2.Rows) != 3 {
		t.Errorf("NULL row leaked into comparisons: %d + %d", len(r1.Rows), len(r2.Rows))
	}
	r3 := mustExec(t, db, `SELECT name FROM landfill WHERE area IS NULL`)
	if len(r3.Rows) != 1 || r3.Rows[0][0].Str() != "d" {
		t.Errorf("IS NULL: %v", rowsAsStrings(r3))
	}
}

func TestInnerJoin(t *testing.T) {
	db := sampleDB(t)
	r := mustExec(t, db, `SELECT l.city, e.elem_name
		FROM landfill AS l JOIN elem_contained AS e ON l.name = e.landfill_name
		WHERE e.elem_name = 'Mercury'`)
	got := rowsAsStrings(r)
	if len(got) != 2 {
		t.Fatalf("rows: %v", got)
	}
}

func TestLeftJoinPadsNulls(t *testing.T) {
	db := sampleDB(t)
	r := mustExec(t, db, `SELECT l.name, e.elem_name
		FROM landfill l LEFT JOIN elem_contained e ON l.name = e.landfill_name
		WHERE l.name = 'd'`)
	if len(r.Rows) != 1 || !r.Rows[0][1].IsNull() {
		t.Errorf("left join pad: %v", rowsAsStrings(r))
	}
}

func TestCommaJoinWithEquiWhereUsesHashJoin(t *testing.T) {
	db := sampleDB(t)
	// Paper Example 4.6 shape: self join via comma syntax + WHERE equality.
	r := mustExec(t, db, `SELECT e1.landfill_name AS l1, e2.landfill_name AS l2, e1.elem_name
		FROM elem_contained AS e1, elem_contained AS e2
		WHERE e1.elem_name = e2.elem_name AND e1.landfill_name <> e2.landfill_name`)
	got := rowsAsStrings(r)
	// Mercury in a&b (2 ordered pairs), Lead in a&c (2 ordered pairs).
	if len(got) != 4 {
		t.Fatalf("rows: %v", got)
	}
}

func TestCrossJoin(t *testing.T) {
	db := sampleDB(t)
	r := mustExec(t, db, `SELECT COUNT(*) FROM landfill CROSS JOIN elem_contained`)
	if r.Rows[0][0].Int() != 24 {
		t.Errorf("cross join count = %v", r.Rows[0][0])
	}
}

func TestGroupByHaving(t *testing.T) {
	db := sampleDB(t)
	r := mustExec(t, db, `SELECT landfill_name, COUNT(*) AS n, SUM(amount) AS total
		FROM elem_contained GROUP BY landfill_name HAVING COUNT(*) >= 2 ORDER BY n DESC, landfill_name`)
	got := rowsAsStrings(r)
	if len(got) != 2 {
		t.Fatalf("groups: %v", got)
	}
	if got[0] != "a|3|47.6" {
		t.Errorf("first group: %q", got[0])
	}
	if got[1] != "c|2|11.4" {
		t.Errorf("second group: %q", got[1])
	}
}

func TestAggregatesOverall(t *testing.T) {
	db := sampleDB(t)
	r := mustExec(t, db, `SELECT COUNT(*), COUNT(area), AVG(area), MIN(area), MAX(area) FROM landfill`)
	row := r.Rows[0]
	if row[0].Int() != 4 || row[1].Int() != 3 {
		t.Errorf("COUNT: %v", rowsAsStrings(r))
	}
	if row[3].Float() != 45.2 || row[4].Float() != 120.5 {
		t.Errorf("MIN/MAX: %v", rowsAsStrings(r))
	}
	want := (120.5 + 80.0 + 45.2) / 3
	if diff := row[2].Float() - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("AVG = %v, want %v", row[2], want)
	}
}

func TestAggregateOnEmptyInput(t *testing.T) {
	db := sampleDB(t)
	r := mustExec(t, db, `SELECT COUNT(*), SUM(area) FROM landfill WHERE name = 'zzz'`)
	if r.Rows[0][0].Int() != 0 || !r.Rows[0][1].IsNull() {
		t.Errorf("empty aggregate: %v", rowsAsStrings(r))
	}
}

func TestCountDistinct(t *testing.T) {
	db := sampleDB(t)
	r := mustExec(t, db, `SELECT COUNT(DISTINCT elem_name) FROM elem_contained`)
	if r.Rows[0][0].Int() != 4 {
		t.Errorf("distinct count = %v", r.Rows[0][0])
	}
}

func TestDistinctRows(t *testing.T) {
	db := sampleDB(t)
	r := mustExec(t, db, `SELECT DISTINCT landfill_name FROM elem_contained ORDER BY landfill_name`)
	got := rowsAsStrings(r)
	if strings.Join(got, ",") != "a,b,c" {
		t.Errorf("distinct: %v", got)
	}
}

func TestOrderByMultipleKeysAndNulls(t *testing.T) {
	db := sampleDB(t)
	r := mustExec(t, db, `SELECT name, area FROM landfill ORDER BY area DESC, name`)
	got := rowsAsStrings(r)
	// NULLs sort first ascending, so DESC puts them last.
	if got[len(got)-1] != "d|NULL" {
		t.Errorf("NULL ordering: %v", got)
	}
	if got[0] != "a|120.5" {
		t.Errorf("DESC ordering: %v", got)
	}
}

func TestOrderByAlias(t *testing.T) {
	db := sampleDB(t)
	r := mustExec(t, db, `SELECT name, area * 2 AS a2 FROM landfill WHERE area IS NOT NULL ORDER BY a2`)
	got := rowsAsStrings(r)
	if got[0] != "c|90.4" {
		t.Errorf("alias ordering: %v", got)
	}
}

func TestLimitOffset(t *testing.T) {
	db := sampleDB(t)
	r := mustExec(t, db, `SELECT name FROM landfill ORDER BY name LIMIT 2 OFFSET 1`)
	got := rowsAsStrings(r)
	if strings.Join(got, ",") != "b,c" {
		t.Errorf("limit/offset: %v", got)
	}
}

func TestInBetweenLikeCase(t *testing.T) {
	db := sampleDB(t)
	r := mustExec(t, db, `SELECT name FROM landfill WHERE city IN ('Torino', 'Roma') ORDER BY name`)
	if strings.Join(rowsAsStrings(r), ",") != "a,c,d" {
		t.Errorf("IN: %v", rowsAsStrings(r))
	}
	r = mustExec(t, db, `SELECT name FROM landfill WHERE area BETWEEN 50 AND 130 ORDER BY name`)
	if strings.Join(rowsAsStrings(r), ",") != "a,b" {
		t.Errorf("BETWEEN: %v", rowsAsStrings(r))
	}
	r = mustExec(t, db, `SELECT elem_name FROM elem_contained WHERE elem_name LIKE 'Me%' AND landfill_name = 'a'`)
	if strings.Join(rowsAsStrings(r), ",") != "Mercury" {
		t.Errorf("LIKE: %v", rowsAsStrings(r))
	}
	r = mustExec(t, db, `SELECT name, CASE WHEN active THEN 'open' ELSE 'closed' END AS st FROM landfill ORDER BY name`)
	got := rowsAsStrings(r)
	if got[2] != "c|closed" {
		t.Errorf("CASE: %v", got)
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	db := sqldb.NewDatabase()
	r := mustExec(t, db, `SELECT 1 + 2 AS x, 'hi' || '!' AS s, UPPER('ab')`)
	if r.Rows[0][0].Int() != 3 || r.Rows[0][1].Str() != "hi!" || r.Rows[0][2].Str() != "AB" {
		t.Errorf("%v", rowsAsStrings(r))
	}
}

func TestUpdateDelete(t *testing.T) {
	db := sampleDB(t)
	r := mustExec(t, db, `UPDATE landfill SET area = area + 1 WHERE city = 'Torino'`)
	if r.Affected != 2 {
		t.Errorf("update affected %d", r.Affected)
	}
	r = mustExec(t, db, `SELECT area FROM landfill WHERE name = 'a'`)
	if r.Rows[0][0].Float() != 121.5 {
		t.Errorf("update applied: %v", r.Rows[0][0])
	}
	r = mustExec(t, db, `DELETE FROM elem_contained WHERE landfill_name = 'a'`)
	if r.Affected != 3 {
		t.Errorf("delete affected %d", r.Affected)
	}
	r = mustExec(t, db, `SELECT COUNT(*) FROM elem_contained`)
	if r.Rows[0][0].Int() != 3 {
		t.Errorf("remaining: %v", r.Rows[0][0])
	}
}

func TestInsertWithColumnList(t *testing.T) {
	db := sampleDB(t)
	mustExec(t, db, `INSERT INTO landfill (name, city) VALUES ('e', 'Napoli')`)
	r := mustExec(t, db, `SELECT area, active FROM landfill WHERE name = 'e'`)
	if !r.Rows[0][0].IsNull() || !r.Rows[0][1].IsNull() {
		t.Errorf("omitted columns default to NULL: %v", rowsAsStrings(r))
	}
}

func TestErrorCases(t *testing.T) {
	db := sampleDB(t)
	bad := []string{
		`SELECT nope FROM landfill`,
		`SELECT name FROM nonexistent`,
		`SELECT l.name FROM landfill x`,
		`SELECT name FROM landfill WHERE city > 3`,
		`SELECT name FROM landfill WHERE name`,
		`INSERT INTO landfill VALUES ('a', 'dup', 1.0, TRUE)`,
		`INSERT INTO landfill (nope) VALUES (1)`,
		`SELECT SUM(city) FROM landfill`,
		`SELECT UNKNOWN_FUNC(name) FROM landfill`,
		`SELECT 1/0`,
		`SELECT name FROM landfill LIMIT -1`,
		`SELECT name, COUNT(*) FROM landfill t, landfill u`,
	}
	for _, q := range bad {
		if _, err := Exec(db, q); err == nil {
			t.Errorf("%q should fail", q)
		}
	}
}

func TestAmbiguousColumn(t *testing.T) {
	db := sampleDB(t)
	_, err := Exec(db, `SELECT name FROM landfill a, landfill b`)
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("want ambiguity error, got %v", err)
	}
}

func TestJoinWithNonEquiOn(t *testing.T) {
	db := sampleDB(t)
	r := mustExec(t, db, `SELECT COUNT(*) FROM landfill a JOIN landfill b ON a.area > b.area`)
	// pairs with a.area > b.area among {120.5, 80, 45.2}: 3 ordered pairs.
	if r.Rows[0][0].Int() != 3 {
		t.Errorf("non-equi join count = %v", r.Rows[0][0])
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	db := sqldb.NewDatabase()
	mustExec(t, db, `CREATE TABLE a (k TEXT)`)
	mustExec(t, db, `CREATE TABLE b (k TEXT)`)
	mustExec(t, db, `INSERT INTO a VALUES (NULL), ('x')`)
	mustExec(t, db, `INSERT INTO b VALUES (NULL), ('x')`)
	r := mustExec(t, db, `SELECT COUNT(*) FROM a JOIN b ON a.k = b.k`)
	if r.Rows[0][0].Int() != 1 {
		t.Errorf("NULL keys must not join: %v", r.Rows[0][0])
	}
}

func TestGroupByExpression(t *testing.T) {
	db := sampleDB(t)
	r := mustExec(t, db, `SELECT UPPER(city) AS c, COUNT(*) FROM landfill GROUP BY UPPER(city) ORDER BY c`)
	got := rowsAsStrings(r)
	if len(got) != 3 || got[2] != "TORINO|2" {
		t.Errorf("group by expr: %v", got)
	}
}

func TestLargeEquiJoinPerformanceShape(t *testing.T) {
	// A 5k x 5k self equi-join must complete fast (hash join, not O(n²)).
	db := sqldb.NewDatabase()
	mustExec(t, db, `CREATE TABLE big (id INT, k TEXT)`)
	tab, _ := db.Table("big")
	for i := 0; i < 5000; i++ {
		tab.Insert([]sqlval.Value{sqlval.NewInt(int64(i)), sqlval.NewString(fmt.Sprintf("k%d", i%100))})
	}
	r := mustExec(t, db, `SELECT COUNT(*) FROM big a, big b WHERE a.k = b.k`)
	if r.Rows[0][0].Int() != 5000*50 {
		t.Errorf("join size = %v, want %d", r.Rows[0][0], 5000*50)
	}
}

func TestLikeMatcher(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"Mercury", "Mer%", true},
		{"Mercury", "%cury", true},
		{"Mercury", "%erc%", true},
		{"Mercury", "M_rcury", true},
		{"Mercury", "m%", false},
		{"", "%", true},
		{"", "_", false},
		{"abc", "abc", true},
		{"abc", "ab", false},
		{"a%b", "a%b", true}, // literal traversal via % wildcard
		// Adjacent '%' match like one; '_' at either end takes exactly one
		// byte there.
		{"abc", "a%%c", true},
		{"ac", "a%%c", true},
		{"", "%%", true},
		{"abc", "%%b%%", true},
		{"abc", "_bc", true},
		{"bc", "_bc", false},
		{"abc", "ab_", true},
		{"ab", "ab_", false},
		{"abc", "_b_", true},
		{"abcd", "_b_", false},
		{"ab", "%_", true},
		{"", "%_", false},
		{"a", "_%_", false},
		{"ab", "_%_", true},
		// Dialect: '_' matches one byte, not one character (PostgreSQL
		// matches a character), and a backslash escapes nothing (in
		// PostgreSQL `a\%` matches only "a%").
		{"é", "_", false},
		{"é", "__", true},
		{`a\x`, `a\%`, true},
		{`a%`, `a\%`, false},
	}
	for _, c := range cases {
		if got := compileLike(c.p).match(c.s); got != c.want {
			t.Errorf("compiled: %q LIKE %q = %v", c.s, c.p, got)
		}
		if got := oracleLike(t, c.s, c.p); got != c.want {
			t.Errorf("oracle: %q LIKE %q = %v", c.s, c.p, got)
		}
		pin(t, sqldb.NewDatabase(), "SELECT "+sqlval.NewString(c.s).SQLLiteral()+" LIKE "+sqlval.NewString(c.p).SQLLiteral(), "BOOLEAN "+fmt.Sprint(c.want))
	}
}

// TestInsertValuesErrors pins what a failing INSERT … VALUES reports and
// leaves behind: rows evaluate and insert one at a time, so the rows before
// the failing one stay inserted and the error text is the expression's own.
func TestInsertValuesErrors(t *testing.T) {
	cases := []struct {
		sql, err string
		kept     []string
	}{
		{`INSERT INTO t VALUES (1, 'x'), (nosuch, 'y')`, `sqlexec: unknown column "nosuch"`, []string{"1|x"}},
		{`INSERT INTO t VALUES (1, 'x'), (2, COUNT(*))`, `sqlexec: aggregate COUNT outside grouping context`, []string{"1|x"}},
		{`INSERT INTO t VALUES (1, 'x'), (2 / 0, 'y'), (3, 'z')`, `sqlexec: division by zero`, []string{"1|x"}},
		{`INSERT INTO t VALUES (-1, 'a' || 'b'), (1 + 1, UPPER('c')), (CASE WHEN 1 < 2 THEN 3 END, NULL)`, "", []string{"-1|ab", "2|C", "3|NULL"}},
	}
	for _, c := range cases {
		db := sqldb.NewDatabase()
		mustExec(t, db, `CREATE TABLE t (k INT PRIMARY KEY, v TEXT)`)
		_, err := Exec(db, c.sql)
		if got := fmt.Sprint(err); (c.err == "" && err != nil) || (c.err != "" && got != c.err) {
			t.Errorf("%s: error %v, want %q", c.sql, err, c.err)
		}
		got := rowsAsStrings(mustExec(t, db, `SELECT k, v FROM t ORDER BY k`))
		if strings.Join(got, " ") != strings.Join(c.kept, " ") {
			t.Errorf("%s: table holds %v, want %v", c.sql, got, c.kept)
		}
	}
}
