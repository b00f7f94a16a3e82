package sqlexec

import (
	"strings"
	"testing"

	"crosse/internal/oracle"
	"crosse/internal/sqldb"
	"crosse/internal/sqlparser"
	"crosse/internal/sqlval"
)

// Deterministic edge cases the randomised parity suite cannot pin exactly:
// self-referential INSERT ... SELECT, LIMIT 0/OFFSET-past-end, DISTINCT
// and plain LIMIT early-stop, and grouped first-row semantics through the
// compiled path.
func TestCompiledEdgeCases(t *testing.T) {
	db := sampleDB(t)
	// Self INSERT ... SELECT must materialise before inserting.
	r := mustExec(t, db, `INSERT INTO elem_contained SELECT * FROM elem_contained`)
	if r.Affected != 6 {
		t.Fatalf("self insert affected %d", r.Affected)
	}
	if n := mustExec(t, db, `SELECT COUNT(*) FROM elem_contained`).Rows[0][0].Int(); n != 12 {
		t.Fatalf("rows after self insert = %d", n)
	}
	// LIMIT 0 and OFFSET past the end.
	if n := len(mustExec(t, db, `SELECT name FROM landfill LIMIT 0`).Rows); n != 0 {
		t.Fatalf("LIMIT 0 rows = %d", n)
	}
	if n := len(mustExec(t, db, `SELECT name FROM landfill ORDER BY name LIMIT 2 OFFSET 100`).Rows); n != 0 {
		t.Fatalf("big OFFSET rows = %d", n)
	}
	if n := len(mustExec(t, db, `SELECT name FROM landfill ORDER BY name OFFSET 2`).Rows); n != 2 {
		t.Fatalf("OFFSET-only rows = %d", n)
	}
	// DISTINCT with LIMIT early-stops correctly.
	if n := len(mustExec(t, db, `SELECT DISTINCT landfill_name FROM elem_contained LIMIT 2`).Rows); n != 2 {
		t.Fatalf("distinct limit rows = %d", n)
	}
	// LIMIT without ORDER BY stops the driving scan once it has its rows,
	// however many rows the relation holds.
	tab, err := sqldb.NewTable("counted", sqldb.Schema{{Name: "id", Type: sqlval.TypeInt}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if err := tab.Insert([]sqlval.Value{sqlval.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	counted := &countingTable{Table: tab}
	if err := db.RegisterForeign(counted); err != nil {
		t.Fatal(err)
	}
	if n := len(mustExec(t, db, `SELECT id FROM counted LIMIT 3`).Rows); n != 3 {
		t.Fatalf("LIMIT 3 rows = %d", n)
	}
	if n := counted.rows.Load(); n > 3 {
		t.Fatalf("LIMIT 3 scanned %d of %d rows, want 3", n, tab.Len())
	}
	// Grouped query over a view joined twice + HAVING + ORDER + LIMIT.
	r = mustExec(t, db, `SELECT e.landfill_name, COUNT(*) AS n FROM elem_contained e, landfill l
		WHERE e.landfill_name = l.name AND l.active GROUP BY e.landfill_name ORDER BY n DESC LIMIT 1`)
	if len(r.Rows) != 1 || r.Rows[0][1].Int() != 6 {
		t.Fatalf("grouped top-1 = %v", rowsAsStrings(r))
	}
	// Aggregate + plain col over single group (first-row semantics).
	r = mustExec(t, db, `SELECT landfill_name, COUNT(*) FROM elem_contained WHERE landfill_name = 'a' GROUP BY landfill_name`)
	if r.Rows[0][0].Str() != "a" {
		t.Fatalf("group first-row = %v", rowsAsStrings(r))
	}
}

// Unqualified WHERE references resolve at the earliest join-layout prefix
// that covers them (the oracle's rule too), even when
// they are ambiguous in the full layout.
func TestWherePrefixResolution(t *testing.T) {
	db := sqldb.NewDatabase()
	mustExec(t, db, `CREATE TABLE r (k TEXT, n INT)`)
	mustExec(t, db, `INSERT INTO r VALUES ('a', 1), ('b', 2)`)
	for _, c := range []struct {
		q    string
		want int64
	}{
		// k resolves at prefix 0 as x.k = x.k: always true → full cross.
		{`SELECT COUNT(*) FROM r x, r y WHERE k = k`, 4},
		// k resolves at prefix 0 as x.k: filter, then cross with y.
		{`SELECT COUNT(*) FROM r x, r y WHERE k = 'a'`, 2},
		// n resolves at prefix 0 as x.n even though the ON joined y in.
		{`SELECT COUNT(*) FROM r x JOIN r y ON x.k = y.k WHERE n > 0`, 2},
	} {
		if got := mustExec(t, db, c.q).Rows[0][0].Int(); got != c.want {
			t.Errorf("%q: got %d, want %d", c.q, got, c.want)
		}
		if ref := mustOracle(t, db, c.q).Rows[0][0].Int(); ref != c.want {
			t.Errorf("%q: oracle disagrees: %d", c.q, ref)
		}
	}
}

func mustParseSelect(t *testing.T, q string) *sqlparser.Select {
	t.Helper()
	st, err := sqlparser.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	return st.(*sqlparser.Select)
}

// ORDER BY keys fall back from the projected alias to the underlying
// column per row when evaluation (not just resolution) fails — e.g. an
// alias that shadows a sortable column with text.
func TestOrderByAliasEvalFallback(t *testing.T) {
	db := sqldb.NewDatabase()
	mustExec(t, db, `CREATE TABLE t (a INT, b TEXT)`)
	mustExec(t, db, `INSERT INTO t VALUES (3, 'x'), (1, 'y'), (2, 'z')`)
	// Projected alias 'a' is TEXT, so a+1 errors against the output row
	// and must fall back to the underlying INT column a, per row.
	r := mustExec(t, db, `SELECT b AS a FROM t ORDER BY a + 1`)
	got := strings.Join(rowsAsStrings(r), ",")
	if got != "y,z,x" {
		t.Fatalf("fallback order = %q, want y,z,x", got)
	}
}

// Numeric join keys must follow Compare equality across renderings:
// INTEGER 1000000 widens to DOUBLE 1e+06, and the hash join must match
// them exactly like the oracle does.
func TestHashJoinNumericFolding(t *testing.T) {
	db := sqldb.NewDatabase()
	mustExec(t, db, `CREATE TABLE ai (x INT)`)
	mustExec(t, db, `CREATE TABLE bf (y DOUBLE)`)
	mustExec(t, db, `INSERT INTO ai VALUES (1000000), (2), (-3)`)
	mustExec(t, db, `INSERT INTO bf VALUES (1000000.0), (2.5), (-3.0), (0.0)`)
	const q = `SELECT COUNT(*) FROM ai JOIN bf ON ai.x = bf.y`
	hash := mustExec(t, db, q).Rows[0][0].Int()
	ref := mustOracle(t, db, q).Rows[0][0].Int()
	if hash != 2 || ref != 2 {
		t.Fatalf("hash=%d oracle=%d, want 2 (1e6 and -3 match)", hash, ref)
	}
}

// Negative zero: Compare-equal to +0.0, so index seeks and hash joins
// must treat them as the same key.
func TestNegativeZeroSeekAndJoin(t *testing.T) {
	db := sqldb.NewDatabase()
	mustExec(t, db, `CREATE TABLE nz (c DOUBLE)`)
	mustExec(t, db, `CREATE INDEX idx_nz ON nz (c)`)
	mustExec(t, db, `INSERT INTO nz VALUES (-0.0), (0.0), (1.5)`)
	const q = `SELECT COUNT(*) FROM nz WHERE c = 0.0`
	seek := mustExec(t, db, q).Rows[0][0].Int()
	scan := mustOracle(t, db, q).Rows[0][0].Int()
	if seek != 2 || scan != 2 {
		t.Fatalf("seek=%d oracle=%d, want 2 (-0.0 = 0.0)", seek, scan)
	}
	const jq = `SELECT COUNT(*) FROM nz a JOIN nz b ON a.c = b.c`
	hash := mustExec(t, db, jq).Rows[0][0].Int()
	ref := mustOracle(t, db, jq).Rows[0][0].Int()
	if hash != ref || hash != 5 {
		t.Fatalf("hash=%d oracle=%d, want 5 (2x2 zeros + 1)", hash, ref)
	}
}

// A left-only conjunct in a LEFT JOIN's ON clause disables matching for
// the rows that fail it — they must surface padded, never dropped.
func TestLeftJoinLeftOnlyOnConjunct(t *testing.T) {
	db := sampleDB(t)
	q := `SELECT l.name, e.elem_name FROM landfill l
		LEFT JOIN elem_contained e ON l.name = e.landfill_name AND l.active
		ORDER BY l.name`
	for name, rows := range map[string][][]sqlval.Value{"compiled": mustExec(t, db, q).Rows, "oracle": mustOracle(t, db, q).Rows} {
		// c is inactive: its 2 elements must NOT match; c appears once, padded.
		sawC := 0
		for _, row := range rows {
			if row[0].Str() == "c" {
				sawC++
				if !row[1].IsNull() {
					t.Fatalf("%s: inactive landfill matched %v", name, row[1])
				}
			}
		}
		if sawC != 1 {
			t.Fatalf("%s: padded row count for c = %d, want 1", name, sawC)
		}
	}
}

// NaN follows PostgreSQL: NaN equals NaN and sorts above every other
// number. Filters, IN, BETWEEN, ORDER BY both ways, MIN/MAX, index seeks
// and hash joins all see that one order. Row 6's NaN comes out of
// Infinity - Infinity, row 3's out of 'NaN'; y holds a NaN on every row,
// since no literal expression yields one (1e308*10 overflows).
func TestNaNOrdersAboveNumbers(t *testing.T) {
	db := sqldb.NewDatabase()
	mustExec(t, db, `CREATE TABLE f (id INT, x DOUBLE, y DOUBLE)`)
	mustExec(t, db, `INSERT INTO f VALUES (1, 1.0, 'NaN'), (2, 2.0, 'NaN'), (3, 'NaN', 'NaN'), (4, 3.0, 'NaN'), (5, NULL, 'NaN')`)
	mustExec(t, db, `CREATE TABLE inf (x DOUBLE)`)
	mustExec(t, db, `INSERT INTO inf VALUES ('Infinity')`)
	mustExec(t, db, `INSERT INTO f SELECT 6, x - x, 'NaN' FROM inf`)
	mustExec(t, db, `CREATE TABLE fi (id INT, x DOUBLE, y DOUBLE)`)
	mustExec(t, db, `CREATE INDEX idx_fi ON fi (x)`)
	mustExec(t, db, `INSERT INTO fi SELECT * FROM f`)
	cases := []struct{ where, want string }{
		{`x = 1.0`, "1"},
		{`x = 2.0`, "2"},
		{`x <> 1.0`, "2,3,4,6"},
		{`x >= 1.5`, "2,3,4,6"},
		{`x < 3.0`, "1,2"},
		{`x IN (1.0)`, "1"},
		{`x IN (1.0, y)`, "1,3,6"},
		{`x BETWEEN 1.5 AND 3`, "2,4"},
		{`x NOT BETWEEN 1.5 AND 3`, "1,3,6"},
		{`x = y`, "3,6"},
		{`x > 1e308`, "3,6"},
	}
	ids := func(rows [][]sqlval.Value) string {
		return strings.Join(rowsAsStrings(&Result{Rows: rows}), ",")
	}
	for _, table := range []string{"f", "fi"} {
		for _, c := range cases {
			q := `SELECT id FROM ` + table + ` WHERE ` + c.where + ` ORDER BY id`
			if got := ids(mustExec(t, db, q).Rows); got != c.want {
				t.Errorf("%s: %s, want %s", q, got, c.want)
			}
			if ref, err := oracle.SQL(db, mustParseSelect(t, q)); err != nil || ids(ref.Rows) != c.want {
				t.Errorf("%s: oracle %v (err %v), want %s", q, ref, err, c.want)
			}
		}
		for _, c := range []struct{ q, want string }{
			{`SELECT id FROM ` + table + ` ORDER BY x, id`, "5,1,2,4,3,6"},
			{`SELECT id FROM ` + table + ` ORDER BY x DESC, id`, "3,6,4,2,1,5"},
			{`SELECT MIN(x), MAX(x) FROM ` + table, "1|NaN"},
			{`SELECT COUNT(*) FROM ` + table + ` a JOIN ` + table + ` b ON a.x = b.x`, "7"},
			{`SELECT COUNT(DISTINCT x) FROM ` + table, "4"},
		} {
			if got := ids(mustExec(t, db, c.q).Rows); got != c.want {
				t.Errorf("%s: %s, want %s", c.q, got, c.want)
			}
			if got := ids(mustOracle(t, db, c.q).Rows); got != c.want {
				t.Errorf("%s: oracle %s, want %s", c.q, got, c.want)
			}
		}
	}
}
