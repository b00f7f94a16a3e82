package sqlexec

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

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
	for _, expr := range []string{`1/0`, `1%0`, `1.0/0`, `'a' + 1`, `TRUE * 2`, `-'text'`} {
		if err := evalConstErr(t, expr); err == nil {
			t.Errorf("%s should fail", expr)
		}
	}
	// INTEGER arithmetic never wraps: every result outside int64 is an
	// error, in the compiled path and in the reference interpreter alike.
	for _, expr := range []string{
		`9223372036854775807 + 1`,
		`-9223372036854775807 - 2`,
		`4611686018427387904 * 2`,
		`-1 * (-9223372036854775807 - 1)`,
		`-(-9223372036854775807 - 1)`,
		`(-9223372036854775807 - 1) / -1`,
		`ABS(-9223372036854775807 - 1)`,
	} {
		const want = "sqlexec: integer out of range"
		if err := evalConstErr(t, expr); err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", expr, err, want)
		}
		if _, err := evalSelectInterp(db, mustParseSelect(t, "SELECT "+expr)); err == nil || err.Error() != want {
			t.Errorf("%s: interpreter err = %v, want %q", expr, err, want)
		}
	}
	// The edges themselves are representable.
	for _, c := range []struct{ expr, want string }{
		{`9223372036854775806 + 1`, "9223372036854775807"},
		{`-9223372036854775807 - 1`, "-9223372036854775808"},
		{`(-9223372036854775807 - 1) % -1`, "0"},
		{`ABS(-9223372036854775807)`, "9223372036854775807"},
		{`3037000499 * 3037000499`, "9223372030926249001"},
	} {
		if got := evalConst(t, c.expr).String(); got != c.want {
			t.Errorf("%s = %q, want %q", c.expr, got, c.want)
		}
	}
}

// Integer arguments — LIMIT, OFFSET, ROUND's scale, SUBSTR's start and
// length — take their value through the INTEGER coercion: an integral
// DOUBLE or a numeric string works, anything else is an error, never a
// zero read from the wrong payload. The interpreter agrees on LIMIT and
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
		ref, err := evalSelectInterp(db, mustParseSelect(t, c.q))
		if err != nil || len(ref.Rows) != c.rows {
			t.Errorf("%s: interpreter rows=%v err=%v, want %d", c.q, ref, err, c.rows)
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
		if _, err := evalSelectInterp(db, mustParseSelect(t, q)); err == nil {
			t.Errorf("%s: interpreter should fail", q)
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
// int64 — on the serial and the morsel-parallel paths and in the
// interpreter alike. Zero rows between the extremes put them in different
// morsels, so the parallel path merges partial sums.
func TestIntegerSumExact(t *testing.T) {
	forceParallel(t)
	db := sqldb.NewDatabase()
	mustExec(t, db, `CREATE TABLE t (x INT)`)
	tab, _ := db.Table("t")
	for _, x := range []int64{math.MaxInt64, math.MaxInt64, -math.MaxInt64, math.MinInt64} {
		for _, v := range []int64{x, 0, 0, 0, 0, 0, 0, 0} {
			if err := tab.Insert([]sqlval.Value{sqlval.NewInt(v)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []struct {
		q    string
		want string // the sum, or the error
	}{
		{`SELECT SUM(x) FROM t WHERE x > 0`, "sqlexec: integer out of range"},
		{`SELECT SUM(x) FROM t WHERE x < 0`, "sqlexec: integer out of range"},
		{`SELECT SUM(x) FROM t WHERE x >= -9223372036854775807`, fmt.Sprint(int64(math.MaxInt64))},
		{`SELECT SUM(x) FROM t`, "-1"},
	}
	for _, tc := range cases {
		sel := mustParseSelect(t, tc.q)
		res, err := evalSelectInterp(db, sel)
		results := map[string]*Result{"interpreter": res}
		errs := map[string]error{"interpreter": err}
		for _, par := range []int{1, 4} {
			name := fmt.Sprintf("parallelism=%d", par)
			results[name], errs[name] = EvalSelectOpts(db, sel, Options{Parallelism: par})
		}
		for name, res := range results {
			got := ""
			if err := errs[name]; err != nil {
				got = err.Error()
			} else {
				got = res.Rows[0][0].String()
			}
			if got != tc.want {
				t.Errorf("%s, %s: got %s, want %s", tc.q, name, got, tc.want)
			}
		}
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
