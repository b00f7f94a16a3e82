package sqlexec

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"crosse/internal/sqldb"
	"crosse/internal/sqlparser"
	"crosse/internal/sqlval"
)

// TestRecycledSortRowsNeverEscape runs ORDER BY windows from several
// goroutines at once, each query on one compiled plan (each tail on one
// compiled Tail), in both regimes: a window under half of the buffered
// rows is copied out and the sorter's buffers are recycled for the next
// sorter; a larger one hands the buffered rows over into the Result. Every
// answer must equal the oracle's; a Result held while later queries reuse
// the recycled blocks must not change; and what the pool hands back must
// be zeroed. Run it under -race.
func TestRecycledSortRowsNeverEscape(t *testing.T) {
	const n = 4000
	db := sqldb.NewDatabase()
	mustExec(t, db, `CREATE TABLE t (id INT, v INT, s TEXT)`)
	tbl, _ := db.Table("t")
	for i := 0; i < n; i++ {
		v := i * 7919 % n
		tbl.Insert([]sqlval.Value{sqlval.NewInt(int64(i)), sqlval.NewInt(int64(v)), sqlval.NewString(fmt.Sprintf("s%05d", v))})
	}
	type job struct {
		name string
		run  func() ([][]sqlval.Value, error)
		want string
	}
	var jobs []job
	for _, q := range []string{
		// Copied out: 4000 rows buffered (2k = 5040), a 20-row window.
		`SELECT id, s FROM t ORDER BY v DESC LIMIT 20 OFFSET 2500`,
		// Copied out, hidden keys: 1007 to 2013 rows buffered, 7 kept.
		`SELECT s FROM t ORDER BY v % 13, id LIMIT 7 OFFSET 1000`,
		// The grouped tail, copied out: 97 groups, cut back to 43, 3 kept.
		`SELECT v % 97, COUNT(*), MIN(s) FROM t GROUP BY v % 97 ORDER BY v % 97 DESC LIMIT 3 OFFSET 40`,
		// Handed over: a 3000-row window of 4000 rows, and every row.
		`SELECT id, s FROM t ORDER BY s LIMIT 3000`,
		`SELECT id, v FROM t ORDER BY v DESC`,
		`SELECT v % 97, COUNT(*) FROM t GROUP BY v % 97 ORDER BY v % 97`,
	} {
		p, err := Compile(db, mustParseSelect(t, q))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{q, func() ([][]sqlval.Value, error) {
			res, err := p.RunContext(nil)
			if err != nil {
				return nil, err
			}
			return res.Rows, nil
		}, render(mustOracle(t, db, q).Rows)})
	}

	// Tail.Apply over materialised rows (k, name, tag), in both regimes.
	rows := make([][]sqlval.Value, n)
	for i := range rows {
		k := i * 7919 % n
		rows[i] = []sqlval.Value{sqlval.NewInt(int64(k)), sqlval.NewString(fmt.Sprintf("r%05d", k)), sqlval.NewString("tag")}
	}
	cols := []ScopeCol{{Name: "k"}, {Name: "name"}, {Name: "tag"}}
	sortedBy := func(less func(a, b []sqlval.Value) int, offset, limit int) string {
		s := slices.Clone(rows)
		slices.SortStableFunc(s, less)
		return render(window(s, offset, limit))
	}
	byK := func(a, b []sqlval.Value) int { return int(b[0].Int() - a[0].Int()) }
	byMod := func(a, b []sqlval.Value) int {
		if c := int(a[0].Int()%7 - b[0].Int()%7); c != 0 {
			return c
		}
		return int(a[0].Int() - b[0].Int())
	}
	byName := func(a, b []sqlval.Value) int { return strings.Compare(a[1].Str(), b[1].Str()) }
	for _, c := range []struct {
		tail string
		want string
	}{
		{"ORDER BY k DESC LIMIT 10 OFFSET 500", sortedBy(byK, 500, 10)},
		{"ORDER BY k % 7, k LIMIT 5 OFFSET 1200", sortedBy(byMod, 1200, 5)},
		{"ORDER BY name", sortedBy(byName, -1, -1)},
	} {
		sel, err := sqlparser.ParseSelect("SELECT k, name, tag FROM sesql_result " + c.tail)
		if err != nil {
			t.Fatal(err)
		}
		tail, err := CompileTail(cols, sel)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{c.tail, func() ([][]sqlval.Value, error) { return tail.Apply(rows) }, c.want})
	}

	held := make([][][]sqlval.Value, len(jobs))
	for i, j := range jobs {
		got, err := j.run()
		if err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		held[i] = got
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range 4 * len(jobs) {
				j := jobs[(g+it)%len(jobs)]
				got, err := j.run()
				if err != nil {
					t.Errorf("%s: %v", j.name, err)
					return
				}
				if s := render(got); s != j.want {
					t.Errorf("%s: got %.200s…, want %.200s…", j.name, s, j.want)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, j := range jobs {
		if s := render(held[i]); s != j.want {
			t.Errorf("%s: the held Result changed to %.200s…", j.name, s)
		}
	}

	// What the pool hands back is zeroed: no sortedRow still points at a
	// row, and every row the arena carves is NULL, the reused ones too.
	// (Under -race a Put is dropped at random, hence the attempts.)
	reused := false
	for attempt := 0; attempt < 20 && !reused; attempt++ {
		arena := sqlval.NewRowArena(3)
		buf := make([]sortedRow, 100)
		dirty := map[*sqlval.Value]bool{}
		for i := range buf {
			buf[i] = sortedRow{row: arena.Copy([]sqlval.Value{sqlval.NewString("dirty"), sqlval.NewInt(1), sqlval.NewBool(true)}), seq: 1}
			dirty[&buf[i].row[0]] = true
		}
		putSortScratch(buf, arena, true)
		buf, arena = takeSortScratch(3, 0)
		for i, sr := range buf[:cap(buf)] {
			if sr.row != nil || sr.seq != 0 {
				t.Fatalf("recycled sortedRow %d = %v", i, sr)
			}
		}
		for range 200 {
			r := arena.Next()
			reused = reused || dirty[&r[0]]
			for _, v := range r {
				if v != sqlval.Null {
					t.Fatalf("recycled arena row holds %v", v)
				}
			}
		}
	}
	if !reused {
		t.Fatal("no arena reused a released block")
	}
}

// render is renderRows (types included) joined one row per line.
func render(rows [][]sqlval.Value) string { return strings.Join(renderRows(rows), "\n") }
