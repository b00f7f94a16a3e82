package sqlexec

// probe_test.go — the index-probe join (run.go: planProbe, probe). A
// swapped first join whose inner side is a local table with a hash index
// on its join column probes that index once per driving row when the
// driving rows are few; these tests pin that it pairs exactly the rows the
// oracle (internal/oracle) pairs, that it is taken only where it should
// be, and that it never deadlocks against writers.

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crosse/internal/oracle"
	"crosse/internal/sqldb"
	"crosse/internal/sqlparser"
	"crosse/internal/sqlval"
)

// probeDB builds a small driving table l (an index on grp, so a seek
// makes it tiny) and a larger inner table r with hash indexes on each of
// its key columns, also registered as "sized", which cannot seek. Keys
// cover integers past 2^53 against doubles, -0/+0, NaN, NULL, and text.
func probeDB(t *testing.T) *sqldb.Database {
	t.Helper()
	db := sqldb.NewDatabase()
	mustExec(t, db, `CREATE TABLE l (id INT PRIMARY KEY, grp INT, ki INT, kf DOUBLE, kt TEXT)`)
	mustExec(t, db, `CREATE TABLE r (id INT PRIMARY KEY, ki INT, kf DOUBLE, kt TEXT, v INT)`)
	for _, col := range []string{"grp"} {
		mustExec(t, db, fmt.Sprintf(`CREATE INDEX idx_l_%s ON l (%s)`, col, col))
	}
	for _, col := range []string{"ki", "kf", "kt"} {
		mustExec(t, db, fmt.Sprintf(`CREATE INDEX idx_r_%s ON r (%s)`, col, col))
	}
	const p53 = 1 << 53
	ints := []sqlval.Value{
		sqlval.NewInt(p53), sqlval.NewInt(p53 + 1), sqlval.NewInt(p53 + 2), sqlval.NewInt(0),
		sqlval.NewInt(3), sqlval.NewInt(-7), sqlval.NewInt(math.MaxInt64), sqlval.Null,
	}
	floats := []sqlval.Value{
		sqlval.NewFloat(p53), sqlval.NewFloat(p53 + 2), sqlval.NewFloat(math.Copysign(0, -1)), sqlval.NewFloat(0),
		sqlval.NewFloat(3), sqlval.NewFloat(math.NaN()), sqlval.NewFloat(2.5), sqlval.Null,
	}
	texts := []sqlval.Value{
		sqlval.NewString("a"), sqlval.NewString("b"), sqlval.NewString("3"), sqlval.Null,
		sqlval.NewString(""), sqlval.NewString("a"), sqlval.NewString("c"), sqlval.NewString("b"),
	}
	lt, _ := db.Table("l")
	for i := 0; i < 16; i++ {
		row := []sqlval.Value{sqlval.NewInt(int64(i)), sqlval.NewInt(int64(i % 4)),
			ints[i%len(ints)], floats[(i*3)%len(floats)], texts[(i*5)%len(texts)]}
		if err := lt.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	rt, _ := db.Table("r")
	for i := 0; i < 240; i++ {
		row := []sqlval.Value{sqlval.NewInt(int64(i)), ints[(i*7)%len(ints)],
			floats[(i*5)%len(floats)], texts[(i*3)%len(texts)], sqlval.NewInt(int64(i % 5))}
		if err := rt.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.RegisterForeign(sizedScan{rt}); err != nil {
		t.Fatal(err)
	}
	return db
}

// sizedScan is r under the name "sized": it reports its row count but
// cannot seek.
type sizedScan struct{ t *sqldb.Table }

func (s sizedScan) Name() string                            { return "sized" }
func (s sizedScan) Schema() sqldb.Schema                    { return s.t.Schema() }
func (s sizedScan) Scan(fn func([]sqlval.Value) bool) error { return s.t.Scan(fn) }
func (s sizedScan) Len() int                                { return s.t.Len() }

// runProbed runs plan as Run does and reports whether its first join ran
// as an index probe.
func runProbed(plan *SelectPlan) (res *Result, probed bool, err error) {
	r := &runner{p: plan}
	err = r.run()
	return &Result{Columns: plan.headers, Rows: r.out}, r.probing, err
}

// TestIndexProbeMatchesInterpreter is the probe's parity table. Each query
// must equal the oracle: as a multiset, and as the exact sequence when it is ordered or when the probe
// ran — the probe walks driving rows in scan order and each index bucket
// in row order, as the oracle's nested loops do.
// Where the oracle reports a type error the join never hits (TEXT
// against INTEGER keys), the reference is the empty answer.
func TestIndexProbeMatchesInterpreter(t *testing.T) {
	db := probeDB(t)
	cases := []struct {
		name, q string
		probe   bool // the default plan must take the probe
	}{
		{"int key on double column past 2^53", `SELECT l.id, r.id FROM l JOIN r ON l.ki = r.kf WHERE l.grp IN (0, 1)`, true},
		{"int key on double column, every driving row", `SELECT l.id, r.id, r.kf FROM l, r WHERE r.kf = l.ki`, true},
		{"double key on int column below 2^53", `SELECT l.id, r.id FROM l JOIN r ON l.kf = r.ki WHERE l.grp IN (1, 2)`, true},
		{"double key on int column past 2^53 keeps the hash", `SELECT l.id, r.id FROM l JOIN r ON l.kf = r.ki WHERE l.grp = 0`, false},
		{"-0 and +0, NaN", `SELECT l.id, r.id, r.kf FROM l JOIN r ON l.kf = r.kf WHERE l.grp >= 2`, true},
		{"NULL keys never match", `SELECT l.id, r.id FROM l JOIN r ON l.kt = r.kt WHERE l.grp = 3`, true},
		{"text key on int column", `SELECT l.id, r.id FROM l JOIN r ON l.kt = r.ki WHERE l.grp = 1`, true},
		{"residual ON conjunct", `SELECT l.id, r.id FROM l JOIN r ON l.kt = r.kt AND l.id < r.v WHERE l.grp = 2`, true},
		{"inner filters", `SELECT l.id, r.id, r.v FROM l JOIN r ON l.kt = r.kt AND r.v > 1 WHERE l.grp = 0 AND r.v <> 3`, true},
		{"post-join WHERE conjunct", `SELECT l.id, r.id FROM l, r WHERE l.grp = 1 AND r.ki = l.ki AND r.v + l.id > 2`, true},
		{"LIMIT", `SELECT l.id, r.id FROM l JOIN r ON l.kt = r.kt WHERE l.grp = 0 LIMIT 5`, true},
		{"ORDER BY unique, LIMIT OFFSET", `SELECT l.id, r.id FROM l JOIN r ON l.kt = r.kt WHERE l.grp = 0 ORDER BY r.id DESC, l.id LIMIT 4 OFFSET 2`, true},
		{"ORDER BY with ties", `SELECT l.id, r.id, r.v FROM l JOIN r ON l.kt = r.kt WHERE l.grp = 2 ORDER BY r.v`, true},
		{"ORDER BY with ties, LIMIT", `SELECT l.id, r.id, r.v FROM l JOIN r ON l.kt = r.kt WHERE l.grp = 2 ORDER BY r.v LIMIT 7`, true},
		{"grouped", `SELECT r.v, COUNT(*), SUM(l.id) FROM l JOIN r ON l.kt = r.kt WHERE l.grp = 0 GROUP BY r.v ORDER BY r.v`, true},
		{"self-join", `SELECT a.id, b.id FROM r a JOIN r b ON a.kt = b.kt WHERE a.id = 5`, true},
		{"second join after the probe", `SELECT l.id, r.id, s.id FROM l JOIN r ON l.kt = r.kt JOIN r s ON s.id = r.v WHERE l.grp = 1`, true},
		{"inner side that cannot seek keeps the hash", `SELECT l.id, s.id FROM l JOIN sized s ON l.kt = s.kt WHERE l.grp = 0`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sel := mustParseSelect(t, tc.q)
			want, err := oracle.SQL(db, sel)
			if err != nil {
				// The oracle compares a TEXT key with an INTEGER one
				// and fails. Hash and probe keys never match across type
				// classes, so no pair joins: the answer is empty.
				if !strings.Contains(err.Error(), "cannot compare") {
					t.Fatal(err)
				}
				want = &oracle.Answer{}
			}
			wr := renderRows(want.Rows)
			plan, err := Compile(db, sel)
			if err != nil {
				t.Fatal(err)
			}
			got, probed, err := runProbed(plan)
			if err != nil {
				t.Fatal(err)
			}
			if probed != tc.probe {
				t.Fatalf("probed=%v, want %v", probed, tc.probe)
			}
			gr := renderRows(got.Rows)
			ties := strings.Contains(tc.name, "ties")
			switch {
			case sel.Limit != nil && len(sel.OrderBy) == 0:
				checkLimited(t, db, sel, gr, len(wr))
			case ties && !probed:
				// The hash path meets tied rows in another order: the
				// sort keys (the last column) must still agree row by
				// row, and every row must belong to the answer.
				checkLimited(t, db, sel, gr, len(wr))
				for i := range gr {
					if g, w := gr[i][strings.LastIndex(gr[i], "|"):], wr[i][strings.LastIndex(wr[i], "|"):]; g != w {
						t.Fatalf("row %d sorts by %s, want %s", i, g, w)
					}
				}
			case probed || len(sel.OrderBy) > 0:
				if strings.Join(gr, "\n") != strings.Join(wr, "\n") {
					t.Fatalf("want:\n%s\ngot:\n%s", strings.Join(wr, "\n"), strings.Join(gr, "\n"))
				}
			default:
				if strings.Join(sortedCopy(gr), "\n") != strings.Join(sortedCopy(wr), "\n") {
					t.Fatalf("want:\n%s\ngot:\n%s", strings.Join(wr, "\n"), strings.Join(gr, "\n"))
				}
			}
		})
	}
}

// checkLimited checks an answer whose choice of rows the query leaves
// open — a LIMIT without ORDER BY, or a LIMIT cutting through tied rows:
// the right number of rows, each drawn from the unlimited answer.
func checkLimited(t *testing.T, db *sqldb.Database, sel *sqlparser.Select, got []string, n int) {
	t.Helper()
	noLim := *sel
	noLim.Limit, noLim.Offset = nil, nil
	full, err := oracle.SQL(db, &noLim)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("%d rows, want %d", len(got), n)
	}
	pool := map[string]int{}
	for _, r := range renderRows(full.Rows) {
		pool[r]++
	}
	for _, r := range got {
		if pool[r]--; pool[r] < 0 {
			t.Fatalf("row %q is not in the unlimited answer", r)
		}
	}
}

// countingTable is a local table that counts its full scans, the rows
// they hand out, and its seeks, so a test can see which side a join read
// and how, and where a scan stopped.
type countingTable struct {
	*sqldb.Table
	scans, rows, seeks atomic.Int64
}

func (c *countingTable) Scan(fn func([]sqlval.Value) bool) error {
	c.scans.Add(1)
	return c.Table.Scan(func(row []sqlval.Value) bool {
		c.rows.Add(1)
		return fn(row)
	})
}

func (c *countingTable) ScanEq(col string, v sqlval.Value, fn func([]sqlval.Value) bool) error {
	c.seeks.Add(1)
	return c.Table.ScanEq(col, v, fn)
}

// TestIndexProbeTakenForSeekDrivenJoin pins when the probe runs on the
// shape of the harness's join_replace_constant request: a landfill seek
// returns a dozen elem_contained rows, each probes idx_analysis_landfill,
// and analysis is never scanned in full. A driving side too large next to
// analysis keeps the hash path, which scans analysis once and never seeks.
func TestIndexProbeTakenForSeekDrivenJoin(t *testing.T) {
	db := sqldb.NewDatabase()
	mustExec(t, db, `CREATE TABLE elem_contained (elem_name TEXT, landfill_name TEXT, amount DOUBLE)`)
	mustExec(t, db, `CREATE INDEX idx_ec_landfill ON elem_contained (landfill_name)`)
	ec, _ := db.Table("elem_contained")
	at, err := sqldb.NewTable("analysis", sqldb.Schema{
		{Name: "lab_name", Type: sqlval.TypeString},
		{Name: "landfill_name", Type: sqlval.TypeString},
		{Name: "purity", Type: sqlval.TypeFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := at.CreateIndex("landfill_name"); err != nil {
		t.Fatal(err)
	}
	analysis := &countingTable{Table: at}
	if err := db.RegisterForeign(analysis); err != nil {
		t.Fatal(err)
	}
	const landfills = 200
	for i := 0; i < landfills*12; i++ {
		lf := fmt.Sprintf("landfill_%04d", i%landfills)
		if err := ec.Insert([]sqlval.Value{sqlval.NewString(fmt.Sprintf("elem_%d", i/landfills)), sqlval.NewString(lf), sqlval.NewFloat(float64(i % 97))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < landfills*2; i++ {
		lf := fmt.Sprintf("landfill_%04d", i%landfills)
		if err := at.Insert([]sqlval.Value{sqlval.NewString(fmt.Sprintf("lab_%d", i%7)), sqlval.NewString(lf), sqlval.NewFloat(float64(i%10) / 10)}); err != nil {
			t.Fatal(err)
		}
	}

	run := func(q string) *Result {
		t.Helper()
		sel := mustParseSelect(t, q)
		want, err := oracle.SQL(db, sel)
		if err != nil {
			t.Fatal(err)
		}
		analysis.scans.Store(0)
		analysis.seeks.Store(0)
		got, err := EvalSelectOpts(db, sel, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if g, w := strings.Join(sortedCopy(renderRows(got.Rows)), "\n"), strings.Join(sortedCopy(renderRows(want.Rows)), "\n"); g != w {
			t.Fatalf("%q:\nwant:\n%s\ngot:\n%s", q, w, g)
		}
		return got
	}

	got := run(`SELECT e.landfill_name, e.elem_name, a.lab_name FROM elem_contained e, analysis a
		WHERE e.landfill_name = 'landfill_0007' AND a.landfill_name = e.landfill_name AND a.purity >= 0.5`)
	if len(got.Rows) == 0 {
		t.Fatal("the probe shape returned no rows")
	}
	if s, k := analysis.scans.Load(), analysis.seeks.Load(); s != 0 || k != 12 {
		t.Fatalf("probe shape: %d full scans and %d seeks of analysis, want 0 and one per driving row (12)", s, k)
	}

	// 2 400 elem_contained rows pass amount < 60 of ≈2 900: far more than
	// analysis's 400 rows can carry, so the hash path runs.
	mustExec(t, db, `DELETE FROM elem_contained WHERE amount >= 70`)
	got = run(`SELECT e.landfill_name, a.lab_name FROM elem_contained e, analysis a
		WHERE a.landfill_name = e.landfill_name AND e.amount < 60`)
	if s, k := analysis.scans.Load(), analysis.seeks.Load(); s != 1 || k != 0 {
		t.Fatalf("hash shape: %d full scans and %d seeks of analysis, want 1 and 0", s, k)
	}
}

// TestIndexProbeSelfJoinUnderWriters races self-join probes against
// inserts, updates and deletes on the same table. The driving rows are
// materialised before the first probe, so no read lock is ever taken
// while another is held — a recursive RLock would block behind a waiting
// writer and deadlock. Every answer pairs rows with equal keys.
func TestIndexProbeSelfJoinUnderWriters(t *testing.T) {
	db := sqldb.NewDatabase()
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, k INT, v INT)`)
	mustExec(t, db, `CREATE INDEX idx_t_k ON t (k)`)
	tab, _ := db.Table("t")
	for i := 0; i < 400; i++ {
		if err := tab.Insert([]sqlval.Value{sqlval.NewInt(int64(i)), sqlval.NewInt(int64(i % 40)), sqlval.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := sqlparser.ParseSelectTemplate(`SELECT a.id, a.k, b.k FROM t a JOIN t b ON a.k = b.k WHERE a.id = ?1:int`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := CompileOpts(db, st, Options{})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var writers, readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				id := int64(1000 + w*1_000_000 + n)
				_ = tab.Insert([]sqlval.Value{sqlval.NewInt(id), sqlval.NewInt(id % 40), sqlval.NewInt(0)})
				_, _ = tab.UpdateWhere(func(row []sqlval.Value) (bool, error) { return row[0].Int() == id, nil },
					func(row []sqlval.Value) ([]sqlval.Value, error) {
						return []sqlval.Value{row[0], row[1], sqlval.NewInt(1)}, nil
					})
				if n%2 == 0 {
					_, _ = tab.DeleteWhere(func(row []sqlval.Value) (bool, error) { return row[0].Int() == id, nil })
				}
			}
		}(w)
	}
	var probes atomic.Int64
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; i < 150; i++ {
				res, probed, err := runProbed(plan.Bind([]sqlval.Value{sqlval.NewInt(int64((g*37 + i) % 400))}))
				if err != nil {
					errs <- err
					return
				}
				if probed {
					probes.Add(1)
				}
				for _, row := range res.Rows {
					if row[1].Int() != row[2].Int() {
						errs <- fmt.Errorf("paired keys %v and %v", row[1], row[2])
						return
					}
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { readers.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("self-join probes did not finish within 60s: deadlock against the writers")
	}
	close(stop)
	writers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if probes.Load() == 0 {
		t.Fatal("no run took the probe")
	}
}
