package sqlexec

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"crosse/internal/oracle"
	"crosse/internal/sqldb"
	"crosse/internal/sqlval"
)

// evalConst evaluates a constant expression through a FROM-less SELECT.
func evalConst(t *testing.T, expr string) sqlval.Value {
	t.Helper()
	db := sqldb.NewDatabase()
	r := mustExec(t, db, "SELECT "+expr)
	return r.Rows[0][0]
}

// typedRows renders rows as "TYPE value" cells, a NULL as NULL, cells
// joined by "|" and rows by ";".
func typedRows(rows [][]sqlval.Value) string {
	var out []string
	for _, row := range rows {
		var cells []string
		for _, v := range row {
			if v.IsNull() {
				cells = append(cells, "NULL")
			} else {
				cells = append(cells, v.Type().String()+" "+v.String())
			}
		}
		out = append(out, strings.Join(cells, "|"))
	}
	return strings.Join(out, ";")
}

// pin checks q's answer against a hand-computed want — its rows rendered
// by typedRows, or the executor's error text — on the executor and on the
// oracle. The oracle words its errors its own way, so where want is an
// error it is held only to failing.
func pin(t *testing.T, db *sqldb.Database, q, want string) {
	t.Helper()
	res, err := Exec(db, q)
	got := fmt.Sprint(err)
	if err == nil {
		got = typedRows(res.Rows)
	}
	if got != want {
		t.Errorf("%s = %s, want %s", q, got, want)
	}
	wantErr := strings.HasPrefix(want, "sqlexec: ") || strings.HasPrefix(want, "sqlval: ")
	ans, err := oracle.SQL(db, mustParseSelect(t, q))
	switch {
	case wantErr || err != nil:
		if (err != nil) != wantErr {
			t.Errorf("%s: oracle error %v, want %s", q, err, want)
		}
	case typedRows(ans.Rows) != want:
		t.Errorf("%s: oracle = %s, want %s", q, typedRows(ans.Rows), want)
	}
}

func evalConstErr(t *testing.T, expr string) error {
	t.Helper()
	db := sqldb.NewDatabase()
	_, err := Exec(db, "SELECT "+expr)
	return err
}

func TestScalarFunctions(t *testing.T) {
	cases := []struct {
		expr string
		want string
	}{
		{`UPPER('abc')`, "ABC"},
		{`LOWER('AbC')`, "abc"},
		{`LENGTH('hello')`, "5"},
		{`TRIM('  x  ')`, "x"},
		{`ABS(-7)`, "7"},
		{`ABS(-2.5)`, "2.5"},
		{`ROUND(2.6)`, "3"},
		{`ROUND(2.449, 1)`, "2.4"},
		// Halves round away from zero, not to even.
		{`ROUND(2.5)`, "3"},
		{`ROUND(-2.5)`, "-3"},
		{`ROUND(0.125, 2)`, "0.13"},
		{`COALESCE(NULL, NULL, 'z')`, "z"},
		{`COALESCE(NULL)`, "NULL"},
		{`NULLIF(3, 3)`, "NULL"},
		{`NULLIF(3, 4)`, "3"},
		{`SUBSTR('smartground', 1, 5)`, "smart"},
		{`SUBSTR('smartground', 6)`, "ground"},
		{`SUBSTR('abc', 10)`, ""},
		{`SUBSTR('abc', 2, 100)`, "bc"},
		{`SUBSTR('abc', -5, 2)`, "ab"},
		{`CONCAT('a', NULL, 'b', 1)`, "a" + "b1"},
		{`UPPER(NULL)`, "NULL"},
		{`LENGTH(NULL)`, "NULL"},
		{`ABS(NULL)`, "NULL"},
		{`ROUND(NULL)`, "NULL"},
	}
	for _, c := range cases {
		got := evalConst(t, c.expr)
		if got.String() != c.want {
			t.Errorf("%s = %q, want %q", c.expr, got.String(), c.want)
		}
	}
}

func TestScalarFunctionErrors(t *testing.T) {
	bad := []string{
		`UPPER()`,
		`UPPER('a', 'b')`,
		`LENGTH()`,
		`ABS('text')`,
		`SUBSTR('a')`,
		`NULLIF(1)`,
		`TRIM()`,
		`NO_SUCH_FUNC(1)`,
	}
	for _, expr := range bad {
		if err := evalConstErr(t, expr); err == nil {
			t.Errorf("%s should fail", expr)
		}
	}
}

func TestArithmeticEdgeCases(t *testing.T) {
	cases := []struct {
		expr string
		want string
	}{
		{`7 % 3`, "1"},
		{`7.5 % 2`, "1.5"},
		// The remainder takes the dividend's sign (truncated, not floored).
		{`-7 % 3`, "-1"},
		{`7 % -3`, "1"},
		{`-7.5 % 2`, "-1.5"},
		{`2 * 3.5`, "7"},
		{`1 - 2`, "-1"},
		{`-(-5)`, "5"},
		{`-2.5`, "-2.5"},
		{`NULL + 1`, "NULL"},
		{`'a' || NULL`, "NULL"},
		{`1 || 2`, "12"}, // concat renders numerics
	}
	for _, c := range cases {
		if got := evalConst(t, c.expr).String(); got != c.want {
			t.Errorf("%s = %q, want %q", c.expr, got, c.want)
		}
	}
	// The same sign and rounding rules per row, over table columns.
	db := sqldb.NewDatabase()
	mustExec(t, db, "CREATE TABLE nums (a INT, b INT, x DOUBLE, y DOUBLE)")
	mustExec(t, db, "INSERT INTO nums VALUES (-7, 3, -7.5, 2), (7, -3, 2.5, 0.125), (7, 3, -2.5, 2)")
	r := mustExec(t, db, "SELECT a % b, x % y, ROUND(x), ROUND(y, 2) FROM nums")
	if got, want := rowsAsStrings(r), []string{"-1|-1.5|-8|2", "1|0|3|0.13", "1|-0.5|-3|2"}; !slices.Equal(got, want) {
		t.Errorf("per-row %%, ROUND: %v, want %v", got, want)
	}
	for _, expr := range []string{`'a' + 1`, `TRUE * 2`, `-'text'`} {
		if err := evalConstErr(t, expr); err == nil {
			t.Errorf("%s should fail", expr)
		}
	}
	// INTEGER arithmetic never wraps: every result outside int64 is an
	// error, in the compiled path and in the oracle alike, and the edges
	// themselves are representable.
	const outOfRange = "sqlexec: integer out of range"
	for _, c := range []struct{ q, want string }{
		{`SELECT 9223372036854775807 + 1`, outOfRange},
		{`SELECT -9223372036854775807 - 2`, outOfRange},
		{`SELECT 4611686018427387904 * 2`, outOfRange},
		{`SELECT 3037000500 * 3037000500`, outOfRange},
		{`SELECT -1 * (-9223372036854775807 - 1)`, outOfRange},
		{`SELECT -(-9223372036854775807 - 1)`, outOfRange},
		{`SELECT (-9223372036854775807 - 1) / -1`, outOfRange},
		{`SELECT ABS(-9223372036854775807 - 1)`, outOfRange},
		{`SELECT 9223372036854775806 + 1`, "INTEGER 9223372036854775807"},
		{`SELECT -9223372036854775807 - 1`, "INTEGER -9223372036854775808"},
		{`SELECT -9223372036854775807`, "INTEGER -9223372036854775807"},
		{`SELECT (-9223372036854775807 - 1) % -1`, "INTEGER 0"},
		{`SELECT ABS(-9223372036854775807)`, "INTEGER 9223372036854775807"},
		{`SELECT 3037000499 * 3037000499`, "INTEGER 9223372030926249001"},
		{`SELECT 9223372036854775807 + 1.0`, "DOUBLE 9.223372036854776e+18"},
	} {
		pin(t, db, c.q, c.want)
	}
}

// Integer arguments — LIMIT, OFFSET, ROUND's scale, SUBSTR's start and
// length — take their value through the INTEGER coercion: an integral
// DOUBLE or a numeric string works, anything else is an error, never a
// zero read from the wrong payload. The oracle agrees on LIMIT and
// OFFSET.
func TestIntegerArgumentsCoerce(t *testing.T) {
	for _, c := range []struct{ expr, want string }{
		{`ROUND(2.567, '1')`, "2.6"},
		{`ROUND(2.567, 1.0)`, "2.6"},
		{`SUBSTR('abcdef', '3')`, "cdef"},
		{`SUBSTR('abcdef', 2.0)`, "bcdef"},
		{`SUBSTR('abcdef', 2, '2')`, "bc"},
		{`SUBSTR('abcdef', 2, 2.0)`, "bc"},
	} {
		if got := evalConst(t, c.expr).String(); got != c.want {
			t.Errorf("%s = %q, want %q", c.expr, got, c.want)
		}
	}
	for _, expr := range []string{
		`ROUND('abc')`,
		`ROUND(TRUE)`,
		`ROUND('abc', 1)`,
		`ROUND(2.567, 1.5)`,
		`ROUND(2.567, 'a')`,
		`SUBSTR('abcdef', 2.9)`,
		`SUBSTR('abcdef', 'x')`,
		`SUBSTR('abcdef', 2, 1.9)`,
	} {
		if err := evalConstErr(t, expr); err == nil {
			t.Errorf("%s should fail", expr)
		}
	}

	db := sampleDB(t)
	for _, c := range []struct {
		q    string
		rows int
	}{
		{`SELECT name FROM landfill ORDER BY name LIMIT 2.0`, 2},
		{`SELECT name FROM landfill ORDER BY name LIMIT '2'`, 2},
		{`SELECT name FROM landfill LIMIT 3.0 OFFSET '2'`, 2},
		{`SELECT name FROM landfill OFFSET 1.0`, 3},
	} {
		if n := len(mustExec(t, db, c.q).Rows); n != c.rows {
			t.Errorf("%s: %d rows, want %d", c.q, n, c.rows)
		}
		ref, err := oracle.SQL(db, mustParseSelect(t, c.q))
		if err != nil || len(ref.Rows) != c.rows {
			t.Errorf("%s: oracle answer=%v err=%v, want %d rows", c.q, ref, err, c.rows)
		}
	}
	for _, q := range []string{
		`SELECT name FROM landfill LIMIT 1.7`,
		`SELECT name FROM landfill LIMIT 'a'`,
		`SELECT name FROM landfill OFFSET 1.5`,
		`SELECT name FROM landfill LIMIT 2 OFFSET 'x'`,
	} {
		if _, err := Exec(db, q); err == nil {
			t.Errorf("%s should fail", q)
		}
		if _, err := oracle.SQL(db, mustParseSelect(t, q)); err == nil {
			t.Errorf("%s: the oracle should fail", q)
		}
	}
}

func TestCaseOperandForm(t *testing.T) {
	got := evalConst(t, `CASE 2 WHEN 1 THEN 'one' WHEN 2 THEN 'two' ELSE 'many' END`)
	if got.Str() != "two" {
		t.Errorf("got %v", got)
	}
	got = evalConst(t, `CASE 9 WHEN 1 THEN 'one' END`)
	if !got.IsNull() {
		t.Errorf("no-match CASE without ELSE must be NULL: %v", got)
	}
	// NULL operand never matches.
	got = evalConst(t, `CASE NULL WHEN 1 THEN 'x' ELSE 'e' END`)
	if got.Str() != "e" {
		t.Errorf("NULL operand: %v", got)
	}
}

func TestInListNullSemantics(t *testing.T) {
	// value NOT IN (list containing NULL) is UNKNOWN when no match.
	got := evalConst(t, `1 IN (2, NULL)`)
	if !got.IsNull() {
		t.Errorf("1 IN (2, NULL) = %v, want NULL", got)
	}
	got = evalConst(t, `1 IN (1, NULL)`)
	if !got.Bool() {
		t.Errorf("1 IN (1, NULL) = %v, want true", got)
	}
	got = evalConst(t, `NULL IN (1)`)
	if !got.IsNull() {
		t.Errorf("NULL IN (1) = %v", got)
	}
	got = evalConst(t, `1 NOT IN (1, NULL)`)
	if got.Bool() {
		t.Errorf("1 NOT IN (1, NULL) = %v, want false", got)
	}
}

func TestBetweenNullSemantics(t *testing.T) {
	if got := evalConst(t, `NULL BETWEEN 1 AND 2`); !got.IsNull() {
		t.Errorf("NULL BETWEEN = %v", got)
	}
	if got := evalConst(t, `1 BETWEEN NULL AND 2`); !got.IsNull() {
		t.Errorf("BETWEEN NULL lo = %v", got)
	}
	if got := evalConst(t, `3 NOT BETWEEN 1 AND 2`); !got.Bool() {
		t.Errorf("NOT BETWEEN = %v", got)
	}
}

func TestLikeNullAndTypeErrors(t *testing.T) {
	if got := evalConst(t, `NULL LIKE 'x'`); !got.IsNull() {
		t.Errorf("NULL LIKE = %v", got)
	}
	if err := evalConstErr(t, `1 LIKE 'x'`); err == nil {
		t.Error("numeric LIKE must fail")
	}
}

func TestMinMaxAggregateOnStrings(t *testing.T) {
	db := sqldb.NewDatabase()
	mustExec(t, db, `CREATE TABLE t (s TEXT)`)
	mustExec(t, db, `INSERT INTO t VALUES ('banana'), ('apple'), ('cherry'), (NULL)`)
	r := mustExec(t, db, `SELECT MIN(s), MAX(s) FROM t`)
	if r.Rows[0][0].Str() != "apple" || r.Rows[0][1].Str() != "cherry" {
		t.Errorf("MIN/MAX text: %v", rowsAsStrings(r))
	}
}

func TestSumDistinct(t *testing.T) {
	db := sqldb.NewDatabase()
	mustExec(t, db, `CREATE TABLE t (n INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1), (1), (2), (3), (3)`)
	r := mustExec(t, db, `SELECT SUM(DISTINCT n), SUM(n) FROM t`)
	if r.Rows[0][0].Int() != 6 || r.Rows[0][1].Int() != 10 {
		t.Errorf("SUM DISTINCT: %v", rowsAsStrings(r))
	}
}

// TestIntegerSumExact pins INTEGER SUM: it accumulates exactly, whatever
// the order of its additions, and fails only when the final sum leaves
// int64 — in the executor and in the oracle alike.
func TestIntegerSumExact(t *testing.T) {
	db := sqldb.NewDatabase()
	mustExec(t, db, `CREATE TABLE t (x INT)`)
	tab, _ := db.Table("t")
	for _, x := range []int64{math.MaxInt64, math.MaxInt64, -math.MaxInt64, math.MinInt64} {
		if err := tab.Insert([]sqlval.Value{sqlval.NewInt(x)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct{ q, want string }{
		{`SELECT SUM(x) FROM t WHERE x > 0`, "sqlexec: integer out of range"},
		{`SELECT SUM(x) FROM t WHERE x < 0`, "sqlexec: integer out of range"},
		{`SELECT SUM(x) FROM t WHERE x >= -9223372036854775807`, fmt.Sprint("INTEGER ", int64(math.MaxInt64))},
		{`SELECT SUM(x) FROM t`, "INTEGER -1"},
	} {
		pin(t, db, tc.q, tc.want)
	}
}

func TestAggregateArityAndTypeErrors(t *testing.T) {
	db := sqldb.NewDatabase()
	mustExec(t, db, `CREATE TABLE t (s TEXT)`)
	mustExec(t, db, `INSERT INTO t VALUES ('x')`)
	for _, q := range []string{
		`SELECT SUM(s) FROM t`,
		`SELECT AVG(s) FROM t`,
		`SELECT SUM(s, s) FROM t`,
	} {
		if _, err := Exec(db, q); err == nil {
			t.Errorf("%s should fail", q)
		}
	}
}

func TestHavingWithoutGroupBy(t *testing.T) {
	db := sampleDB(t)
	r := mustExec(t, db, `SELECT COUNT(*) FROM landfill HAVING COUNT(*) > 2`)
	if len(r.Rows) != 1 || r.Rows[0][0].Int() != 4 {
		t.Errorf("grand-total HAVING pass: %v", rowsAsStrings(r))
	}
	r = mustExec(t, db, `SELECT COUNT(*) FROM landfill HAVING COUNT(*) > 100`)
	if len(r.Rows) != 0 {
		t.Errorf("grand-total HAVING fail: %v", rowsAsStrings(r))
	}
}

func TestOrderByOnUnderlyingQualifiedColumn(t *testing.T) {
	db := sampleDB(t)
	r := mustExec(t, db, `SELECT l.name FROM landfill l ORDER BY l.area DESC`)
	got := rowsAsStrings(r)
	// NULL area sorts first ascending ⇒ last on DESC.
	if got[len(got)-1] != "d" {
		t.Errorf("qualified order: %v", got)
	}
}

func TestAliasShadowsColumnInOrderBy(t *testing.T) {
	db := sampleDB(t)
	// Alias "area" redefines the column: projected alias wins.
	r := mustExec(t, db, `SELECT name, -1 * area AS area FROM landfill WHERE area IS NOT NULL ORDER BY area`)
	got := rowsAsStrings(r)
	if !strings.HasPrefix(got[0], "a|") {
		t.Errorf("alias precedence in ORDER BY: %v", got)
	}
}

func TestOffsetBeyondEnd(t *testing.T) {
	db := sampleDB(t)
	r := mustExec(t, db, `SELECT name FROM landfill LIMIT 10 OFFSET 100`)
	if len(r.Rows) != 0 {
		t.Errorf("offset beyond end: %v", rowsAsStrings(r))
	}
}

func TestUnknownFromAndStar(t *testing.T) {
	db := sampleDB(t)
	if _, err := Exec(db, `SELECT zz.* FROM landfill l`); err == nil {
		t.Error("star with unknown qualifier must fail")
	}
	if _, err := Exec(db, `SELECT * `); err == nil {
		t.Error("bare star without FROM must fail")
	}
}

// TestSemanticsPinnedByHand pins, by hand-computed answers, the value
// rules internal/oracle writes out again on its own: the same table runs
// against the executor and the oracle, so a rule both got wrong the same
// way would still fail here. Where the dialect deviates from PostgreSQL
// the case says so.
func TestSemanticsPinnedByHand(t *testing.T) {
	db := sqldb.NewDatabase()
	mustExec(t, db, `CREATE TABLE agg (g INT, x INT, y DOUBLE)`)
	mustExec(t, db, `INSERT INTO agg VALUES (1, NULL, NULL), (1, NULL, NULL),
		(2, 1, 0.5), (2, 1, 0.25), (2, NULL, NULL), (2, 2, 0.25)`)
	mustExec(t, db, `CREATE TABLE fl (g INT, x DOUBLE)`)
	mustExec(t, db, `INSERT INTO fl VALUES (1, 1.0), (1, 'Infinity'), (1, 2.0),
		(2, 'Infinity'), (2, '-Infinity'),
		(3, 0.1), (3, 0.1), (3, 0.1), (3, 0.1), (3, 0.1), (3, 0.1), (3, 0.1), (3, 0.1), (3, 0.1), (3, 0.1),
		(4, 1e308), (4, 1e308), (4, -1e308), (5, -1e308), (5, 1e308), (5, 1e308)`)
	mustExec(t, db, `CREATE TABLE tx (id INT, s TEXT)`)
	mustExec(t, db, `INSERT INTO tx VALUES (1, NULL), (2, 'a'), (3, 'b')`)
	const divZero = "sqlexec: division by zero"
	const floatRange = "sqlexec: DOUBLE out of range"
	const textPlus = "sqlexec: arithmetic on non-numeric values TEXT, INTEGER"
	for _, c := range []struct{ q, want string }{
		// SUBSTR counts 1-based bytes. Dialect: PostgreSQL counts positions
		// before 1 against the length (SUBSTR('abcdef', 0, 2) is 'a',
		// SUBSTR('abcdef', -3, 5) is 'a') and rejects a negative length;
		// here a start before 1 reads as 1 and a negative length as 0.
		{`SELECT SUBSTR('abcdef', 0)`, "TEXT abcdef"},
		{`SELECT SUBSTR('abcdef', 0, 2)`, "TEXT ab"},
		{`SELECT SUBSTR('abcdef', -3, 5)`, "TEXT abcde"},
		{`SELECT SUBSTR('abcdef', 4, 100)`, "TEXT def"},
		{`SELECT SUBSTR('abcdef', 6, 1)`, "TEXT f"},
		{`SELECT SUBSTR('abcdef', 7)`, "TEXT "},
		{`SELECT SUBSTR('abcdef', 2, 0)`, "TEXT "},
		{`SELECT SUBSTR('abcdef', 2, -1)`, "TEXT "},
		{`SELECT SUBSTR(NULL, 1)`, "NULL"},
		{`SELECT SUBSTR('abc', NULL)`, "NULL"},
		{`SELECT SUBSTR('abc', 1, NULL)`, "NULL"},
		// LENGTH, TRIM, NULLIF and COALESCE with NULLs. Dialect: LENGTH
		// counts bytes (PostgreSQL: characters), TRIM strips all white
		// space (PostgreSQL: spaces), and NULLIF of incomparable values
		// returns the first (PostgreSQL: a type error).
		{`SELECT LENGTH(NULL)`, "NULL"},
		{`SELECT LENGTH('')`, "INTEGER 0"},
		{`SELECT LENGTH('héllo')`, "INTEGER 6"},
		{`SELECT TRIM(NULL)`, "NULL"},
		{`SELECT TRIM('   ')`, "TEXT "},
		{`SELECT TRIM(' a b ')`, "TEXT a b"},
		{`SELECT NULLIF(NULL, 1)`, "NULL"},
		{`SELECT NULLIF(1, NULL)`, "INTEGER 1"},
		{`SELECT NULLIF(NULL, NULL)`, "NULL"},
		{`SELECT NULLIF(2, 2.0)`, "NULL"},
		{`SELECT NULLIF(2, 3)`, "INTEGER 2"},
		{`SELECT NULLIF(1, 'a')`, "INTEGER 1"},
		{`SELECT COALESCE(NULL, NULL)`, "NULL"},
		{`SELECT COALESCE(NULL, 2, 3)`, "INTEGER 2"},
		{`SELECT COALESCE(NULL, 'x', NULL)`, "TEXT x"},
		// CONCAT skips a NULL, || yields NULL. Dialect: a BOOLEAN renders
		// as true / false (PostgreSQL: t / f).
		{`SELECT CONCAT('a', NULL, 'b')`, "TEXT ab"},
		{`SELECT CONCAT(NULL)`, "TEXT "},
		{`SELECT CONCAT(1, 2.5, TRUE)`, "TEXT 12.5true"},
		{`SELECT 'a' || NULL`, "NULL"},
		{`SELECT NULL || NULL`, "NULL"},
		{`SELECT 1 || 'a'`, "TEXT 1a"},
		// Division by zero fails for both types; / truncates toward zero.
		// (The int64 edges of + - * /, unary minus and ABS are in
		// TestArithmeticEdgeCases.)
		{`SELECT 1 / 0`, divZero},
		{`SELECT 1 % 0`, divZero},
		{`SELECT 1.0 / 0`, divZero},
		{`SELECT 1 / 0.0`, divZero},
		{`SELECT 2.5 % 0.0`, divZero},
		{`SELECT -7 / 2`, "INTEGER -3"},
		{`SELECT 7 / -2`, "INTEGER -3"},
		{`SELECT 7.0 / 2`, "DOUBLE 3.5"},
		{`SELECT NULL / 0`, "NULL"},
		// DOUBLE arithmetic, and INTEGER with DOUBLE, is IEEE 754, except
		// that + - * / of finite operands fails where IEEE 754 gives an
		// infinity, as PostgreSQL's float8 overflow does. An infinite
		// operand keeps IEEE 754: Infinity * 2 is Infinity, Infinity -
		// Infinity is NaN.
		{`SELECT 2.5 + -1.0`, "DOUBLE 1.5"},
		{`SELECT 1 - 2.5`, "DOUBLE -1.5"},
		{`SELECT -1.5 * 2`, "DOUBLE -3"},
		{`SELECT -7.5 % 2`, "DOUBLE -1.5"},
		{`SELECT ABS(-0.0)`, "DOUBLE 0"},
		{`SELECT 1e308 * 1`, "DOUBLE 1e+308"},
		{`SELECT 1e308 * 10`, floatRange},
		{`SELECT 1e308 * -10`, floatRange},
		{`SELECT 1e308 + 1e308`, floatRange},
		{`SELECT -1e308 - 1e308`, floatRange},
		{`SELECT 1e308 / 1e-10`, floatRange},
		{`SELECT 9223372036854775807 * 1e300`, floatRange},
		{`SELECT 1e308 * 10 - 1e308 * 10`, floatRange},
		{`SELECT x * 2, x - x FROM fl WHERE g = 2 ORDER BY x DESC`, "DOUBLE +Inf|DOUBLE NaN;DOUBLE -Inf|DOUBLE NaN"},
		// ROUND(x, n) scales by 10^n in DOUBLE; where the scaled value
		// leaves the DOUBLE range, x is already integral at that scale and
		// comes back unchanged, as in PostgreSQL (never +Inf).
		{`SELECT ROUND(1e308, 1)`, "DOUBLE 1e+308"},
		{`SELECT ROUND(1e300, 10)`, "DOUBLE 1e+300"},
		{`SELECT ROUND(-1e300, 10)`, "DOUBLE -1e+300"},
		{`SELECT ROUND(2.345, 2)`, "DOUBLE 2.35"},
		// Aggregates over an empty and an all-NULL group: COUNT is 0, the
		// rest NULL; GROUP BY over no rows has no group at all.
		{`SELECT COUNT(*), COUNT(x), SUM(x), AVG(x), MIN(x), MAX(x), SUM(y) FROM agg WHERE g = 9`,
			"INTEGER 0|INTEGER 0|NULL|NULL|NULL|NULL|NULL"},
		{`SELECT COUNT(*), COUNT(x), SUM(x), AVG(x), MIN(x), MAX(x), SUM(y) FROM agg WHERE g = 1`,
			"INTEGER 2|INTEGER 0|NULL|NULL|NULL|NULL|NULL"},
		{`SELECT g, COUNT(*) FROM agg WHERE g = 9 GROUP BY g`, ""},
		{`SELECT g, COUNT(x), SUM(x), AVG(x), MIN(y), MAX(y), SUM(y) FROM agg GROUP BY g ORDER BY g`,
			"INTEGER 1|INTEGER 0|NULL|NULL|NULL|NULL|NULL;" +
				"INTEGER 2|INTEGER 3|INTEGER 4|DOUBLE 1.3333333333333333|DOUBLE 0.25|DOUBLE 0.5|DOUBLE 1"},
		// DISTINCT aggregates skip NULLs and count each value once.
		{`SELECT COUNT(DISTINCT x), SUM(DISTINCT x), AVG(DISTINCT x), COUNT(DISTINCT y), SUM(DISTINCT y) FROM agg`,
			"INTEGER 2|INTEGER 3|DOUBLE 1.5|INTEGER 2|DOUBLE 0.75"},
		{`SELECT COUNT(DISTINCT x) FROM agg WHERE g = 1`, "INTEGER 0"},
		// A float SUM / AVG over an infinity is that infinity, and over
		// both infinities NaN. Ten 0.1s sum to exactly 1: the sum is
		// compensated (added naively they give 0.9999999999999999).
		{`SELECT SUM(x), AVG(x), SUM(-x) FROM fl WHERE g = 1`, "DOUBLE +Inf|DOUBLE +Inf|DOUBLE -Inf"},
		{`SELECT SUM(x), AVG(x) FROM fl WHERE g = 2`, "DOUBLE NaN|DOUBLE NaN"},
		{`SELECT SUM(x), AVG(x) FROM fl WHERE g = 3`, "DOUBLE 1|DOUBLE 0.1"},
		// Finite inputs whose running sum leaves the DOUBLE range fail, as
		// PostgreSQL's float8 sum does; the check runs in arrival order, so
		// the same values in another order may sum without overflow.
		{`SELECT SUM(x) FROM fl WHERE g = 4`, floatRange},
		{`SELECT AVG(x) FROM fl WHERE g = 4`, floatRange},
		{`SELECT SUM(x), AVG(x) FROM fl WHERE g = 5`, "DOUBLE 1e+308|DOUBLE 3.333333333333333e+307"},
		// A row-level evaluation error fails the query wherever it is
		// raised: in the select list, in WHERE, in HAVING, in an ORDER BY
		// key. The NULL row passes; the first TEXT row fails.
		{`SELECT id, s + 1 FROM tx`, textPlus},
		{`SELECT id FROM tx WHERE s + 1 > 0`, textPlus},
		{`SELECT s, COUNT(*) FROM tx GROUP BY s HAVING MIN(s + 1) > 0`, textPlus},
		{`SELECT id FROM tx ORDER BY s + 1`, textPlus},
	} {
		pin(t, db, c.q, c.want)
	}
}
