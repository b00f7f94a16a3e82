package sqlexec

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"crosse/internal/sqldb"
	"crosse/internal/sqlval"
)

// randDB builds a randomized table r(a INT, b TEXT, c DOUBLE) and returns
// the rows for Go-side cross-checking.
func randDB(t *testing.T, rng *rand.Rand, n int) (*sqldb.Database, [][]sqlval.Value) {
	t.Helper()
	db := sqldb.NewDatabase()
	mustExec(t, db, `CREATE TABLE r (a INT, b TEXT, c DOUBLE)`)
	tab, _ := db.Table("r")
	var rows [][]sqlval.Value
	for i := 0; i < n; i++ {
		row := []sqlval.Value{
			sqlval.NewInt(int64(rng.Intn(20) - 10)),
			sqlval.NewString(fmt.Sprintf("s%d", rng.Intn(5))),
			sqlval.NewFloat(float64(rng.Intn(100)) / 4),
		}
		if rng.Intn(10) == 0 {
			row[2] = sqlval.Null
		}
		if err := tab.Insert(row); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	return db, rows
}

// Property: SQL WHERE filtering equals Go-side evaluation of the same
// predicate over the same rows.
func TestWhereMatchesGoFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	preds := []struct {
		sql string
		fn  func(r []sqlval.Value) bool
	}{
		{`a > 0`, func(r []sqlval.Value) bool { return r[0].Int() > 0 }},
		{`b = 's1'`, func(r []sqlval.Value) bool { return r[1].Str() == "s1" }},
		{`c IS NULL`, func(r []sqlval.Value) bool { return r[2].IsNull() }},
		{`a > 0 AND b <> 's0'`, func(r []sqlval.Value) bool { return r[0].Int() > 0 && r[1].Str() != "s0" }},
		{`a BETWEEN -2 AND 3`, func(r []sqlval.Value) bool { return r[0].Int() >= -2 && r[0].Int() <= 3 }},
		{`b IN ('s0', 's3')`, func(r []sqlval.Value) bool { return r[1].Str() == "s0" || r[1].Str() == "s3" }},
		// 3VL: NULL c never satisfies c > 10.
		{`c > 10`, func(r []sqlval.Value) bool { return !r[2].IsNull() && r[2].Float() > 10 }},
		{`NOT (a = 0)`, func(r []sqlval.Value) bool { return r[0].Int() != 0 }},
	}
	for trial := 0; trial < 10; trial++ {
		db, rows := randDB(t, rng, 100)
		for _, p := range preds {
			res := mustExec(t, db, `SELECT COUNT(*) FROM r WHERE `+p.sql)
			want := 0
			for _, r := range rows {
				if p.fn(r) {
					want++
				}
			}
			if got := int(res.Rows[0][0].Int()); got != want {
				t.Errorf("trial %d, %q: sql=%d go=%d", trial, p.sql, got, want)
			}
		}
	}
}

// Property: the hash join agrees with the oracle's nested
// loops on random data.
func TestHashJoinEqualsNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		db, _ := randDB(t, rng, 60)
		const q = `SELECT COUNT(*) FROM r x, r y WHERE x.b = y.b AND x.a < y.a`

		fast := mustExec(t, db, q).Rows[0][0].Int()
		slow := mustOracle(t, db, q).Rows[0][0].Int()

		if fast != slow {
			t.Fatalf("trial %d: hash=%d oracle=%d", trial, fast, slow)
		}
	}
}

// Property: DISTINCT is idempotent and never increases cardinality.
func TestDistinctProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		db, _ := randDB(t, rng, 80)
		all := mustExec(t, db, `SELECT b FROM r`)
		d1 := mustExec(t, db, `SELECT DISTINCT b FROM r`)
		if len(d1.Rows) > len(all.Rows) {
			t.Fatal("DISTINCT grew the result")
		}
		seen := map[string]bool{}
		for _, r := range d1.Rows {
			key := r[0].String()
			if seen[key] {
				t.Fatalf("DISTINCT produced duplicate %q", key)
			}
			seen[key] = true
		}
		for _, r := range all.Rows {
			if !seen[r[0].String()] {
				t.Fatalf("DISTINCT lost value %q", r[0].String())
			}
		}
	}
}

// Property: ORDER BY produces a non-decreasing key sequence, and LIMIT n
// returns the prefix of the ordered result.
func TestOrderLimitProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 10; trial++ {
		db, _ := randDB(t, rng, 70)
		full := mustExec(t, db, `SELECT a FROM r ORDER BY a`)
		for i := 1; i < len(full.Rows); i++ {
			if full.Rows[i-1][0].Int() > full.Rows[i][0].Int() {
				t.Fatal("ORDER BY not sorted")
			}
		}
		k := rng.Intn(len(full.Rows)) + 1
		lim := mustExec(t, db, fmt.Sprintf(`SELECT a FROM r ORDER BY a LIMIT %d`, k))
		if len(lim.Rows) != k {
			t.Fatalf("LIMIT %d returned %d", k, len(lim.Rows))
		}
		for i := range lim.Rows {
			if lim.Rows[i][0].Int() != full.Rows[i][0].Int() {
				t.Fatal("LIMIT is not a prefix of the ordered result")
			}
		}
	}
}

// Property: COUNT(*) equals the sum of per-group COUNT(*).
func TestGroupCountsSumToTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		db, rows := randDB(t, rng, 90)
		grouped := mustExec(t, db, `SELECT b, COUNT(*) FROM r GROUP BY b`)
		sum := int64(0)
		for _, r := range grouped.Rows {
			sum += r[1].Int()
		}
		if sum != int64(len(rows)) {
			t.Fatalf("group counts sum %d != %d", sum, len(rows))
		}
	}
}

// Property (testing/quick): INSERT then SELECT round-trips arbitrary
// strings, including quotes and unicode.
func TestInsertSelectRoundTripsStrings(t *testing.T) {
	db := sqldb.NewDatabase()
	mustExec(t, db, `CREATE TABLE s (v TEXT)`)
	tab, _ := db.Table("s")
	f := func(s string) bool {
		if err := tab.Insert([]sqlval.Value{sqlval.NewString(s)}); err != nil {
			return false
		}
		found := false
		tab.ScanEq("v", sqlval.NewString(s), func(row []sqlval.Value) bool {
			if row[0].Str() == s {
				found = true
			}
			return true
		})
		return found
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: UPDATE of every row followed by the inverse UPDATE restores
// the aggregate sum.
func TestUpdateInverseRestoresState(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	db, _ := randDB(t, rng, 50)
	before := mustExec(t, db, `SELECT SUM(a) FROM r`).Rows[0][0].Int()
	mustExec(t, db, `UPDATE r SET a = a + 7`)
	mustExec(t, db, `UPDATE r SET a = a - 7`)
	after := mustExec(t, db, `SELECT SUM(a) FROM r`).Rows[0][0].Int()
	if before != after {
		t.Errorf("sum changed: %d → %d", before, after)
	}
}
