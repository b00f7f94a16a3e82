package sqlexec

// parity_test.go — pins the compiled streaming pipeline (compile.go /
// run.go) to the semantics of the oracle (internal/oracle). Randomised
// SELECTs — joins (inner/left/comma), NULLs, LIKE, DISTINCT, ORDER
// BY/LIMIT/OFFSET, grouping and aggregates — are evaluated both ways, and
// the results must agree.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"crosse/internal/oracle"
	"crosse/internal/sqldb"
	"crosse/internal/sqlparser"
	"crosse/internal/sqlval"
)

// parityDB builds two tables with NULLs sprinkled through every nullable
// column; t1.id is an indexed PRIMARY KEY and t2.k carries a secondary
// index, so equality pushdown has something to seek.
//
// Every DOUBLE is dyadic and small (a multiple of 1/4 below 20), so every
// SUM and AVG over them is exact in float64: the oracle's exactly rounded
// sum and the executor's compensated sum then agree bit for bit. Keep the fixtures dyadic; a decimal like 0.1 would make the two
// round differently and the comparison meaningless.
func parityDB(t *testing.T, rng *rand.Rand, n1, n2 int) *sqldb.Database {
	t.Helper()
	db := sqldb.NewDatabase()
	mustExec(t, db, `CREATE TABLE t1 (id INT PRIMARY KEY, a INT, b TEXT, c DOUBLE, d BOOL)`)
	mustExec(t, db, `CREATE TABLE t2 (id INT, k TEXT, v DOUBLE)`)
	mustExec(t, db, `CREATE INDEX idx_k ON t2 (k)`)
	t1, _ := db.Table("t1")
	t2, _ := db.Table("t2")
	for i := 0; i < n1; i++ {
		row := []sqlval.Value{
			sqlval.NewInt(int64(i)),
			sqlval.NewInt(int64(rng.Intn(10) - 5)),
			sqlval.NewString(fmt.Sprintf("s%d", rng.Intn(6))),
			sqlval.NewFloat(float64(rng.Intn(80)) / 4),
			sqlval.NewBool(rng.Intn(2) == 0),
		}
		if rng.Intn(8) == 0 {
			row[1] = sqlval.Null
		}
		if rng.Intn(8) == 0 {
			row[2] = sqlval.Null
		}
		if rng.Intn(8) == 0 {
			row[3] = sqlval.Null
		}
		if rng.Intn(8) == 0 {
			row[4] = sqlval.Null
		}
		if err := t1.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n2; i++ {
		// t2.id is unique (though not declared so): ORDER BY chains ending
		// in x.id, y.id are then total orders over join results, making
		// ordered comparisons against the oracle exact.
		row := []sqlval.Value{
			sqlval.NewInt(int64(i)),
			sqlval.NewString(fmt.Sprintf("s%d", rng.Intn(6))),
			sqlval.NewFloat(float64(rng.Intn(40)) / 2),
		}
		if rng.Intn(8) == 0 {
			row[1] = sqlval.Null
		}
		if rng.Intn(8) == 0 {
			row[2] = sqlval.Null
		}
		if err := t2.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// genSelect produces a random SELECT over t1 (alias x) and optionally t2
// (alias y). Predicates are type-safe (errors would otherwise diverge
// between the materialising oracle and the early-stopping pipeline), and
// ORDER BY always ends with the unique x.id when a LIMIT rides along, so
// the expected prefix is deterministic.
func genSelect(rng *rand.Rand) string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if rng.Intn(4) == 0 {
		b.WriteString("DISTINCT ")
	}

	twoTables := rng.Intn(3) > 0
	joinStyle := rng.Intn(5) // 0 inner equi, 1 left equi, 2 comma+where, 3 non-equi inner, 4 non-equi left
	grouped := rng.Intn(4) == 0

	items := []string{"x.id", "x.a", "x.b", "UPPER(x.b)", "x.a + 1",
		"COALESCE(x.b, 'zz')", "CASE WHEN x.a > 0 THEN 'pos' ELSE 'neg' END"}
	if twoTables {
		items = append(items, "y.k", "y.v", "y.id")
	}
	if grouped {
		aggs := []string{"COUNT(*)", "SUM(x.a)", "AVG(x.c)", "MIN(x.b)", "MAX(x.c)", "COUNT(DISTINCT x.b)"}
		b.WriteString("x.b AS g, ")
		k := rng.Intn(3) + 1
		for i := 0; i < k; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(aggs[rng.Intn(len(aggs))])
		}
	} else {
		k := rng.Intn(3) + 1
		for i := 0; i < k; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(items[rng.Intn(len(items))])
		}
		if rng.Intn(6) == 0 {
			b.WriteString(", *")
		}
	}

	b.WriteString(" FROM t1 x")
	var conj []string
	if twoTables {
		switch joinStyle {
		case 0:
			b.WriteString(" JOIN t2 y ON x.b = y.k")
			if rng.Intn(3) == 0 {
				b.WriteString(" AND y.v > 4")
			}
		case 1:
			b.WriteString(" LEFT JOIN t2 y ON x.id = y.id")
			switch rng.Intn(4) {
			case 0: // right-only ON conjunct: pushable into the right scan
				b.WriteString(" AND y.v > 4")
			case 1: // left-only ON conjunct: must stay residual (pads!)
				b.WriteString(" AND x.a > 0")
			}
		case 2:
			b.WriteString(", t2 y")
			conj = append(conj, "x.b = y.k")
		case 3:
			b.WriteString(" JOIN t2 y ON x.id >= y.id")
		default: // no equi key: a nested-loop LEFT JOIN; x.id past every y.id pads
			b.WriteString(" LEFT JOIN t2 y ON x.id < y.id")
			if rng.Intn(3) == 0 {
				b.WriteString(" AND y.v > 4")
			}
		}
	}

	preds := []string{
		"x.a > 0", "x.b LIKE 's%'", "x.b LIKE '%1'", "x.b LIKE 's_'", "x.b LIKE '%s%'",
		"x.b IS NOT NULL", "x.c BETWEEN 2 AND 15", "x.b IN ('s1', 's3')",
		"NOT (x.a = 2)", "x.d", "x.c IS NULL OR x.c > 3",
		fmt.Sprintf("x.id = %d", rng.Intn(40)),
		// Unqualified references: `id` is ambiguous in a joined layout but
		// resolves at prefix 0 as x.id (earliest-prefix rule); a, c, d
		// exist only in t1.
		"a > 0", fmt.Sprintf("id = %d", rng.Intn(40)), "c BETWEEN 2 AND 15", "d",
	}
	if twoTables && joinStyle != 1 && joinStyle != 4 {
		// WHERE predicates over the LEFT JOIN's right side stay out so
		// padded rows remain observable.
		preds = append(preds, "y.k = 's2'", "y.v >= 3")
	}
	for i := rng.Intn(3); i > 0; i-- {
		conj = append(conj, preds[rng.Intn(len(preds))])
	}
	if len(conj) > 0 {
		b.WriteString(" WHERE " + strings.Join(conj, " AND "))
	}

	limit := rng.Intn(3) == 0
	if grouped {
		b.WriteString(" GROUP BY x.b")
		if rng.Intn(2) == 0 {
			b.WriteString(" HAVING COUNT(*) >= 2")
		}
		if rng.Intn(2) == 0 {
			b.WriteString(" ORDER BY g")
			if limit {
				b.WriteString(fmt.Sprintf(" LIMIT %d", rng.Intn(5)+1))
			}
		}
		return b.String()
	}

	tiebreak := ""
	if twoTables {
		tiebreak = ", y.id"
	}
	switch rng.Intn(3) {
	case 0:
		b.WriteString(" ORDER BY x.a DESC, x.id" + tiebreak)
	case 1:
		b.WriteString(" ORDER BY x.b, x.id DESC" + tiebreak)
	default:
		if limit {
			b.WriteString(" ORDER BY x.id" + tiebreak)
		}
	}
	if limit {
		b.WriteString(fmt.Sprintf(" LIMIT %d", rng.Intn(8)+1))
		if rng.Intn(2) == 0 {
			b.WriteString(fmt.Sprintf(" OFFSET %d", rng.Intn(4)))
		}
	}
	return b.String()
}

func renderRows(rows [][]sqlval.Value) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = fmt.Sprintf("%d:%s", v.Type(), v.String())
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

func sortedCopy(rows []string) []string {
	out := append([]string(nil), rows...)
	sort.Strings(out)
	return out
}

// TestCompiledMatchesInterpreter is the parity property: for every
// generated query, the compiled pipeline agrees with the oracle — exact
// row sequence when the query orders by a unique key chain, multiset equality otherwise (SQL leaves that order
// unspecified, and the executor's build-side choice may legitimately
// differ from the oracle's nesting).
func TestCompiledMatchesInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 12; trial++ {
		db := parityDB(t, rng, 30+rng.Intn(30), 20+rng.Intn(25))
		for q := 0; q < 40; q++ {
			text := genSelect(rng)
			st, err := sqlparser.Parse(text)
			if err != nil {
				t.Fatalf("generated unparseable SQL %q: %v", text, err)
			}
			sel := st.(*sqlparser.Select)

			want, wantErr := oracle.SQL(db, sel)
			ordered := len(sel.OrderBy) > 0

			got, gotErr := EvalSelectOpts(db, sel, Options{})
			if (wantErr != nil) != (gotErr != nil) {
				t.Fatalf("%q: oracle err=%v compiled err=%v", text, wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			if strings.Join(got.Columns, ",") != strings.Join(want.Columns, ",") {
				t.Fatalf("%q: headers %v != %v", text, got.Columns, want.Columns)
			}
			wr, gr := renderRows(want.Rows), renderRows(got.Rows)
			if sel.Limit == nil && sel.Offset == nil {
				if strings.Join(sortedCopy(wr), "\n") != strings.Join(sortedCopy(gr), "\n") {
					t.Fatalf("%q:\noracle:\n%s\ncompiled:\n%s",
						text, strings.Join(wr, "\n"), strings.Join(gr, "\n"))
				}
				if ordered && strings.Join(wr, "\n") != strings.Join(gr, "\n") {
					t.Fatalf("%q: ordered sequences differ\noracle:\n%s\ncompiled:\n%s",
						text, strings.Join(wr, "\n"), strings.Join(gr, "\n"))
				}
				continue
			}
			// LIMIT/OFFSET present.
			if ordered {
				// The generator guarantees a deterministic total order
				// (unique-key tiebreak) whenever LIMIT rides on ORDER
				// BY, so the prefix must match exactly.
				if strings.Join(wr, "\n") != strings.Join(gr, "\n") {
					t.Fatalf("%q: limited sequences differ\noracle:\n%s\ncompiled:\n%s",
						text, strings.Join(wr, "\n"), strings.Join(gr, "\n"))
				}
				continue
			}
			// LIMIT without ORDER BY: any |limit| rows of the full
			// result are acceptable — check count and containment
			// against the unlimited query.
			noLim := *sel
			noLim.Limit, noLim.Offset = nil, nil
			full, err := oracle.SQL(db, &noLim)
			if err != nil {
				t.Fatalf("%q: unlimited reference failed: %v", text, err)
			}
			if len(gr) != len(wr) {
				t.Fatalf("%q: LIMIT row count %d != %d", text, len(gr), len(wr))
			}
			pool := map[string]int{}
			for _, r := range renderRows(full.Rows) {
				pool[r]++
			}
			for _, r := range gr {
				if pool[r] == 0 {
					t.Fatalf("%q: limited row %q not in full result", text, r)
				}
				pool[r]--
			}
		}
	}
}

// TestOrderWindowParity pins the ORDER BY window against the oracle
// on keys with many ties, so the arrival order decides most positions and
// the sequences must match exactly. The LIMIT /
// OFFSET pairs are sized against the table so that a bounded buffer
// (twice limit + offset rows) both does and does not fill and cut. The
// keys cover DESC, a computed key and a key on an unprojected column
// (each held in a hidden slot), a projected alias, and a key mixing
// INTEGER, DOUBLE, NULL and NaN.
func TestOrderWindowParity(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const n1 = 400
	db := parityDB(t, rng, n1, 0)
	t1, _ := db.Table("t1")
	for i := n1; i < n1+20; i++ { // NaN in x.c, which CASE mixes with x.a
		if err := t1.Insert([]sqlval.Value{
			sqlval.NewInt(int64(i)), sqlval.NewInt(int64(i % 3)), sqlval.NewString("s1"),
			sqlval.NewFloat(math.NaN()), sqlval.NewBool(i%2 == 0),
		}); err != nil {
			t.Fatal(err)
		}
	}
	const n = n1 + 20
	shapes := []string{
		`SELECT x.id, x.a, x.b FROM t1 x ORDER BY x.a`,
		`SELECT x.id, x.b FROM t1 x ORDER BY x.b DESC, x.a`,
		`SELECT x.id, x.a AS k FROM t1 x WHERE x.a > -4 ORDER BY k DESC`,
		`SELECT x.id, x.b FROM t1 x ORDER BY x.a + x.c`,
		`SELECT x.id FROM t1 x ORDER BY x.c DESC`,
		`SELECT x.id, x.c FROM t1 x ORDER BY CASE WHEN x.d THEN x.a ELSE x.c END, x.b`,
		`SELECT DISTINCT x.b, x.a FROM t1 x ORDER BY x.a DESC`,
	}
	windows := []string{
		"",
		fmt.Sprintf(" OFFSET %d", n/3),
		" LIMIT 0",
		" LIMIT 3",
		fmt.Sprintf(" LIMIT 3 OFFSET %d", n/5), // k ≪ n: many cuts
		fmt.Sprintf(" LIMIT %d OFFSET %d", n/8, n/4),     // 2k < n: cuts
		fmt.Sprintf(" LIMIT %d OFFSET %d", n/4, n/2),     // 2k > n: never cuts
		fmt.Sprintf(" LIMIT %d", n),                      // k = n
		fmt.Sprintf(" LIMIT 5 OFFSET %d", n+10),          // offset past every row
		fmt.Sprintf(" LIMIT %d OFFSET %d", n/2, n/2-n/8), // window runs off the end
	}
	for _, shape := range shapes {
		for _, w := range windows {
			text := shape + w
			want := strings.Join(renderRows(mustOracle(t, db, text).Rows), "\n")
			got := strings.Join(renderRows(mustExec(t, db, text).Rows), "\n")
			if got != want {
				t.Fatalf("%q: sequences differ\noracle:\n%s\ncompiled:\n%s", text, want, got)
			}
		}
	}
}

// genOrderedSelect produces ORDER BY queries over deliberately low-
// cardinality keys (x.a spans 10 values, x.b six), so nearly every sort
// has ties and the stable-order contract is what distinguishes a correct
// sort from a lucky one. No unique-key tiebreak is appended on purpose.
func genOrderedSelect(rng *rand.Rand) string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if rng.Intn(3) == 0 {
		b.WriteString("DISTINCT ")
	}
	cols := []string{"x.id", "x.a", "x.b", "x.c", "UPPER(x.b)", "x.a + 1"}
	join := rng.Intn(3) == 0
	if join {
		cols = append(cols, "y.k", "y.v")
	}
	k := rng.Intn(3) + 1
	for i := 0; i < k; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(cols[rng.Intn(len(cols))])
	}
	b.WriteString(" FROM t1 x")
	if join {
		b.WriteString(" JOIN t2 y ON x.b = y.k")
	}
	switch rng.Intn(3) {
	case 0:
		b.WriteString(" WHERE x.a > 0")
	case 1:
		b.WriteString(" WHERE x.c BETWEEN 2 AND 15")
	}
	orders := []string{
		" ORDER BY x.a",
		" ORDER BY x.b DESC",
		" ORDER BY x.a DESC, x.b",
		" ORDER BY x.b, x.a",
	}
	b.WriteString(orders[rng.Intn(len(orders))])
	if rng.Intn(2) == 0 {
		b.WriteString(fmt.Sprintf(" LIMIT %d", rng.Intn(12)+1))
		if rng.Intn(2) == 0 {
			b.WriteString(fmt.Sprintf(" OFFSET %d", rng.Intn(6)))
		}
	}
	return b.String()
}

// TestOrderedTiesMatchOracle runs 100 randomised ORDER BY (+ OFFSET /
// LIMIT) queries, DISTINCT and joins among them, whose keys tie on
// nearly every row, and requires the exact sequence the oracle returns:
// ties in arrival order. t1 has more rows than t2, so the join is never
// swapped and arrives in the oracle's nested-loop order.
func TestOrderedTiesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	db := parityDB(t, rng, 160, 90)
	for q := 0; q < 100; q++ {
		text := genOrderedSelect(rng)
		want := strings.Join(renderRows(mustOracle(t, db, text).Rows), "\n")
		if got := strings.Join(renderRows(mustExec(t, db, text).Rows), "\n"); got != want {
			t.Fatalf("%q: sequences differ\noracle:\n%s\ncompiled:\n%s", text, want, got)
		}
	}
}

// TestCompiledOrderStability pins tie handling: ORDER BY on a non-unique
// key must keep equal-key rows in arrival order (stable sort), and the
// bounded top-K heap must retain exactly the stable prefix.
func TestCompiledOrderStability(t *testing.T) {
	db := sqldb.NewDatabase()
	mustExec(t, db, `CREATE TABLE s (grp TEXT, n INT)`)
	tab, _ := db.Table("s")
	for i := 0; i < 40; i++ {
		if err := tab.Insert([]sqlval.Value{
			sqlval.NewString(fmt.Sprintf("g%d", i%4)),
			sqlval.NewInt(int64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	full := mustExec(t, db, `SELECT grp, n FROM s ORDER BY grp`)
	for _, lim := range []int{1, 5, 13, 40} {
		q := fmt.Sprintf(`SELECT grp, n FROM s ORDER BY grp LIMIT %d`, lim)
		got := mustExec(t, db, q)
		if len(got.Rows) != lim {
			t.Fatalf("LIMIT %d returned %d rows", lim, len(got.Rows))
		}
		for i := range got.Rows {
			if got.Rows[i][1].Int() != full.Rows[i][1].Int() {
				t.Fatalf("LIMIT %d: row %d = n%d, want n%d (stable prefix)",
					lim, i, got.Rows[i][1].Int(), full.Rows[i][1].Int())
			}
		}
	}
}

// TestIndexSeekMatchesScan checks the pushed-down seeks against the
// oracle's scan across value types, including coerced constants (int
// literal on a float-typed column) and values absent from the index.
func TestIndexSeekMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	db := parityDB(t, rng, 60, 40)
	queries := []string{
		`SELECT x.id, x.b FROM t1 x WHERE x.id = 7`,
		`SELECT x.id FROM t1 x WHERE x.id = 7.0`,
		`SELECT x.id FROM t1 x WHERE x.id = 999`,
		`SELECT y.k, y.v FROM t2 y WHERE y.k = 's3'`,
		`SELECT y.k FROM t2 y WHERE y.k = 'absent'`,
		`SELECT x.id, y.k FROM t1 x JOIN t2 y ON x.b = y.k WHERE y.k = 's1' AND x.id = 3`,
		`SELECT COUNT(*) FROM t1 x, t2 y WHERE x.b = y.k AND y.k = 's2'`,
	}
	for _, q := range queries {
		with := renderRows(mustExec(t, db, q).Rows)
		without := renderRows(mustOracle(t, db, q).Rows)
		if strings.Join(sortedCopy(with), "\n") != strings.Join(sortedCopy(without), "\n") {
			t.Fatalf("%q: seek=%v scan=%v", q, with, without)
		}
	}
	// Non-integral and incomparable constants must not be pushed into the
	// int-keyed index (they filter, or error, exactly like the scan path).
	if got := mustExec(t, db, `SELECT COUNT(*) FROM t1 x WHERE x.id = 7.5`); got.Rows[0][0].Int() != 0 {
		t.Fatalf("fractional probe matched %v rows", got.Rows[0][0])
	}
	if _, err := Exec(db, `SELECT x.id FROM t1 x WHERE x.b = 3`); err == nil {
		t.Fatal("text = int comparison should error, not seek")
	}
}
