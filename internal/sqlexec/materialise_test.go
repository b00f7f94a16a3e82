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
// second copy, and Rows never regrows. Then it appends to every row of
// results whose rows come out of an arena — sorted windows with and
// without hidden ORDER BY keys, a small window copied out of a large
// buffer, plain rows, grouped rows — and requires that no value of any
// row changes: each row is capped at its own width.
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
	p, err := Compile(db, mustParseSelect(t, `SELECT id, v FROM big ORDER BY v DESC`))
	if err != nil {
		t.Fatal(err)
	}
	bound := n*2*valSize + lastBlock*2*valSize + n*sortedSize + n*sliceSize + slack
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := p.RunContext(nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := int(after.TotalAlloc - before.TotalAlloc); got > bound {
		t.Errorf("RunContext allocated %d bytes for %d sorted rows, want ≤ %d", got, n, bound)
	}
	if len(res.Rows) != n || cap(res.Rows) != n {
		t.Fatalf("%d rows (cap %d), want %d", len(res.Rows), cap(res.Rows), n)
	}
	for i, row := range res.Rows {
		if row[1].Int() != int64(n-1-i) {
			t.Fatalf("row %d has v %v, want %d", i, row[1], n-1-i)
		}
	}

	marker := sqlval.NewString("appended")
	for _, text := range []string{
		`SELECT id, v FROM big ORDER BY v DESC`,
		`SELECT id FROM big ORDER BY v, id LIMIT 10`,
		`SELECT id FROM big ORDER BY v DESC LIMIT 50 OFFSET 10000`,
		`SELECT id, v FROM big WHERE v >= 100`,
		`SELECT DISTINCT v % 50 FROM big`,
		`SELECT v % 97, COUNT(*), MIN(id) FROM big GROUP BY v % 97`,
		`SELECT COUNT(*), MIN(id) FROM big GROUP BY v % 97 ORDER BY v % 97 DESC`,
	} {
		res := mustExec(t, db, text)
		want := make([][]sqlval.Value, len(res.Rows))
		for i, row := range res.Rows {
			if cap(row) != len(row) {
				t.Fatalf("%q: row %d has %d columns but capacity %d", text, i, len(row), cap(row))
			}
			want[i] = slices.Clone(row)
		}
		for i := range res.Rows {
			_ = append(res.Rows[i], marker, marker)
		}
		for i, row := range res.Rows {
			if !slices.Equal(row, want[i]) {
				t.Fatalf("%q: row %d changed from %v to %v after appends", text, i, want[i], row)
			}
		}
	}
}

// TestHashBuildKeepsStoredRows pins the orientation of a heap-table hash
// join — the runner builds over the smaller input, swapping build and
// probe when that is the left one — and that the build side keeps the
// stored rows by reference instead of copying them.
func TestHashBuildKeepsStoredRows(t *testing.T) {
	db := sqldb.NewDatabase()
	mustExec(t, db, `CREATE TABLE small (k INT, name TEXT)`)
	mustExec(t, db, `CREATE TABLE big (id INT, k INT)`)
	small, _ := db.Table("small")
	big, _ := db.Table("big")
	for i := 0; i < 24; i++ {
		small.Insert([]sqlval.Value{sqlval.NewInt(int64(i % 16)), sqlval.NewString("n")})
	}
	for i := 0; i < 300; i++ {
		big.Insert([]sqlval.Value{sqlval.NewInt(int64(i)), sqlval.NewInt(int64(i % 20))})
	}
	stored := map[*sqlval.Value]bool{}
	small.Scan(func(row []sqlval.Value) bool {
		stored[&row[0]] = true
		return true
	})
	for _, j := range []struct {
		from    string
		swapped bool
	}{
		{"small s JOIN big b ON s.k = b.k", true},
		{"big b JOIN small s ON b.k = s.k", false},
	} {
		plan, err := Compile(db, mustParseSelect(t, `SELECT b.id, s.name FROM `+j.from))
		if err != nil {
			t.Fatal(err)
		}
		r := &runner{p: plan}
		if err := r.run(); err != nil {
			t.Fatalf("%s: %v", j.from, err)
		}
		if r.swapped != j.swapped {
			t.Fatalf("%s: swapped = %v, want %v", j.from, r.swapped, j.swapped)
		}
		if len(r.rights[0]) == 0 {
			t.Fatalf("%s: empty build side", j.from)
		}
		for _, row := range r.rights[0] {
			if !stored[&row[0]] {
				t.Fatalf("%s: the build side copied a stored row", j.from)
			}
		}
	}
}
