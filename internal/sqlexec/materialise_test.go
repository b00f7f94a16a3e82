package sqlexec

import (
	"runtime"
	"slices"
	"testing"

	"crosse/internal/sqldb"
	"crosse/internal/sqlval"
)

// materialiseDB holds one table big(id, v) of n rows, v a permutation of
// the ids, so an ORDER BY v really reorders.
func materialiseDB(t *testing.T, n int) *sqldb.Database {
	t.Helper()
	db := sqldb.NewDatabase()
	mustExec(t, db, `CREATE TABLE big (id INT, v INT)`)
	big, _ := db.Table("big")
	for i := 0; i < n; i++ {
		big.Insert([]sqlval.Value{sqlval.NewInt(int64(i)), sqlval.NewInt(int64(i * 7919 % n))})
	}
	return db
}

// TestRunCopiesEachRowOnce bounds what RunContext allocates for a full
// ORDER BY over n rows by the sorter's buffers — its arena of projected
// rows and its slice of sorted rows — and one exact Rows slice, plus
// slack: the rows the sorter holds become the Result's rows without a
// second copy, and Rows never regrows. At Parallelism 2 the bound adds
// the materialised driving scan and lets the workers' sorted-row slices,
// each presized for an even share, grow as they would if one worker
// claimed every morsel. Then it appends to every row of results whose
// rows come out of an arena — sorted windows with and without hidden
// ORDER BY keys, a small window copied out of a large buffer, the morsel
// workers' plain rows, grouped rows (which the serial driver sinks at
// every Parallelism) — and requires that no value of any row changes:
// each row is capped at its own width.
func TestRunCopiesEachRowOnce(t *testing.T) {
	const n = 20000
	db := materialiseDB(t, n)
	const (
		valSize    = 32  // sqlval.Value
		sliceSize  = 24  // a row: []sqlval.Value
		sortedSize = 32  // sortedRow
		lastBlock  = 512 // rows of a full RowArena block, which the last row may leave unused
		slack      = 64 << 10
	)
	for _, par := range []int{1, 2} {
		p, err := CompileOpts(db, mustParseSelect(t, `SELECT id, v FROM big ORDER BY v DESC`), Options{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		bound := n*2*valSize + par*lastBlock*2*valSize + n*sortedSize + n*sliceSize + slack
		if par > 1 {
			bound += n*sliceSize + 3*n*sortedSize
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := p.RunContext(nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if got := int(after.TotalAlloc - before.TotalAlloc); got > bound {
			t.Errorf("parallelism %d: RunContext allocated %d bytes for %d sorted rows, want ≤ %d", par, got, n, bound)
		}
		if len(res.Rows) != n || cap(res.Rows) != n {
			t.Fatalf("parallelism %d: %d rows (cap %d), want %d", par, len(res.Rows), cap(res.Rows), n)
		}
		for i, row := range res.Rows {
			if row[1].Int() != int64(n-1-i) {
				t.Fatalf("parallelism %d: row %d has v %v, want %d", par, i, row[1], n-1-i)
			}
		}
		if par > 1 && res.ParallelFallback != "" {
			t.Fatalf("parallelism %d: fell back (%q)", par, res.ParallelFallback)
		}
	}

	queries := []struct{ text, fallback string }{
		{`SELECT id, v FROM big ORDER BY v DESC`, ""},
		{`SELECT id FROM big ORDER BY v, id LIMIT 10`, ""},
		{`SELECT id FROM big ORDER BY v DESC LIMIT 50 OFFSET 10000`, ""},
		{`SELECT id, v FROM big WHERE v >= 100`, ""},
		{`SELECT DISTINCT v % 50 FROM big`, ""},
		{`SELECT v % 97, COUNT(*), MIN(id) FROM big GROUP BY v % 97`, "aggregate"},
		{`SELECT COUNT(*), MIN(id) FROM big GROUP BY v % 97 ORDER BY v % 97 DESC`, "aggregate"},
	}
	marker := sqlval.NewString("appended")
	for _, q := range queries {
		text := q.text
		for _, par := range []int{1, 2} {
			res := mustExecOpts(t, db, text, Options{Parallelism: par})
			if par > 1 && res.ParallelFallback != q.fallback {
				t.Fatalf("%q parallelism %d: fallback %q, want %q", text, par, res.ParallelFallback, q.fallback)
			}
			want := make([][]sqlval.Value, len(res.Rows))
			for i, row := range res.Rows {
				if cap(row) != len(row) {
					t.Fatalf("%q parallelism %d: row %d has %d columns but capacity %d", text, par, i, len(row), cap(row))
				}
				want[i] = slices.Clone(row)
			}
			for i := range res.Rows {
				_ = append(res.Rows[i], marker, marker)
			}
			for i, row := range res.Rows {
				if !slices.Equal(row, want[i]) {
					t.Fatalf("%q parallelism %d: row %d changed from %v to %v after appends", text, par, i, want[i], row)
				}
			}
		}
	}
}
