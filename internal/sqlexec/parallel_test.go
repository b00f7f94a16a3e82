package sqlexec

// parallel_test.go — regression tests for the morsel-driven parallel path
// (parallel.go). The contract under test is byte-identical output: for any
// plan, any Parallelism setting must produce exactly the rows the serial
// pipeline produces, in the same order — including ties under ORDER BY on
// non-unique keys and DISTINCT survivor choice. Aggregate plans run on the
// serial driver at every setting, and say so.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"crosse/internal/sqldb"
	"crosse/internal/sqlparser"
	"crosse/internal/sqlval"
)

// genOrderedSelect produces ORDER BY queries over deliberately low-
// cardinality keys (x.a spans 10 values, x.b six), so nearly every sort
// has ties and the stable-order contract is what distinguishes a correct
// merge from a lucky one. No unique-key tiebreak is appended on purpose.
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

// TestParallelOrderedDeterminism runs 100 randomised ORDER BY (+ OFFSET /
// LIMIT) queries and requires the parallel results at 2 and 4 workers to
// be byte-identical to Parallelism 1 — ties included.
func TestParallelOrderedDeterminism(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(47))
	db := parityDB(t, rng, 160, 90)
	for q := 0; q < 100; q++ {
		text := genOrderedSelect(rng)
		st, err := sqlparser.Parse(text)
		if err != nil {
			t.Fatalf("generated unparseable SQL %q: %v", text, err)
		}
		sel := st.(*sqlparser.Select)
		base, err := EvalSelectOpts(db, sel, Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("%q serial: %v", text, err)
		}
		want := strings.Join(renderRows(base.Rows), "\n")
		for _, par := range []int{2, 4} {
			got, err := EvalSelectOpts(db, sel, Options{Parallelism: par})
			if err != nil {
				t.Fatalf("%q parallelism %d: %v", text, par, err)
			}
			if g := strings.Join(renderRows(got.Rows), "\n"); g != want {
				t.Fatalf("%q: parallelism %d diverges from serial\nserial:\n%s\nparallel:\n%s",
					text, par, want, g)
			}
		}
	}
}

// TestParallelFallbackReasons pins the fallback contract:
// Result.ParallelFallback names exactly why a SELECT declined the
// parallel path — an aggregate plan at any Parallelism above 1 says
// "aggregate" — and is empty, the query really fanned out, for the shapes
// the morsel engine covers: plain and ORDER BY plans over a join, full
// final sorts and global DISTINCT.
func TestParallelFallbackReasons(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	db := parityDB(t, rng, 200, 60)

	eval := func(text string, par int) *Result {
		t.Helper()
		st, err := sqlparser.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		res, err := EvalSelectOpts(db, st.(*sqlparser.Select), Options{Parallelism: par})
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		return res
	}

	// Serial declines at default thresholds: each names its reason.
	serial := []struct {
		text string
		par  int
		want string
	}{
		{`SELECT x.id FROM t1 x`, 1, "parallelism=1"},
		{`SELECT x.id FROM t1 x LIMIT 0`, 4, "limit 0"},
		{`SELECT x.id FROM t1 x`, 4, "driving scan below parallel threshold"},
		{`SELECT 1 + 2`, 4, "fromless select"},
	}
	for _, tc := range serial {
		if got := eval(tc.text, tc.par).ParallelFallback; got != tc.want {
			t.Errorf("%q at parallelism %d: fallback %q, want %q", tc.text, tc.par, got, tc.want)
		}
	}

	// With thresholds forced down, the plans without aggregates run
	// parallel: empty fallback end to end.
	forceParallel(t)
	parallel := []string{
		`SELECT y.id, x.a FROM t2 y JOIN t1 x ON y.id = x.id`,                                // swapped join build
		`SELECT x.id, y.v FROM t1 x JOIN t2 y ON x.b = y.k ORDER BY y.v DESC, x.id LIMIT 20`, // ORDER BY over a join
		`SELECT x.id, x.c FROM t1 x ORDER BY x.c DESC`,                                       // full final sort
		`SELECT DISTINCT x.a FROM t1 x`,                                                      // plain morsel path
	}
	for _, text := range parallel {
		if got := eval(text, 4).ParallelFallback; got != "" {
			t.Errorf("%q: fell back to serial (%q), want parallel", text, got)
		}
	}

	// Aggregate plans stay on the serial driver even then.
	aggregates := []string{
		`SELECT COUNT(*) FROM t2 y JOIN t1 x ON y.id = x.id`,
		`SELECT x.b, SUM(x.c), AVG(x.c) FROM t1 x GROUP BY x.b`,
		`SELECT x.b, COUNT(DISTINCT x.a) FROM t1 x GROUP BY x.b`,
	}
	for _, text := range aggregates {
		for _, par := range []int{2, 4} {
			if got := eval(text, par).ParallelFallback; got != "aggregate" {
				t.Errorf("%q at parallelism %d: fallback %q, want \"aggregate\"", text, par, got)
			}
		}
	}
}

// TestParallelErrorMatchesSerial pins error semantics: a row-level
// evaluation error must surface identically at every parallelism level
// (same message, and for the unsorted streaming shape the same prefix of
// yielded rows as the serial pipeline).
func TestParallelErrorMatchesSerial(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(53))
	db := parityDB(t, rng, 120, 40)
	// x.b + 1 errors on the first non-NULL text value.
	queries := []string{
		`SELECT x.id, x.b + 1 FROM t1 x`,
		`SELECT x.id FROM t1 x WHERE x.b + 1 > 0`,
		`SELECT x.b, COUNT(*) FROM t1 x GROUP BY x.b HAVING MIN(x.b + 1) > 0`,
		`SELECT x.id FROM t1 x ORDER BY x.b + 1`,
	}
	for _, text := range queries {
		st, err := sqlparser.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		sel := st.(*sqlparser.Select)
		_, serialErr := EvalSelectOpts(db, sel, Options{Parallelism: 1})
		if serialErr == nil {
			t.Fatalf("%q: expected a serial error", text)
		}
		for _, par := range []int{2, 4} {
			_, parErr := EvalSelectOpts(db, sel, Options{Parallelism: par})
			if parErr == nil || parErr.Error() != serialErr.Error() {
				t.Fatalf("%q parallelism %d: error %v, serial %v", text, par, parErr, serialErr)
			}
		}
	}
}

// TestOnePipelineBothDrivers pins that the serial driver and the morsel
// workers share one pipeline: for a heap-table hash join in each
// orientation (the runner swaps build and probe when the left input is
// the smaller one), every sink mode — plain, DISTINCT, ORDER BY + LIMIT,
// and GROUP BY with COUNT(DISTINCT), float SUM and MIN — gives the same
// bytes at Parallelism 1, 2 and 4, the plain modes on the morsel workers
// and the grouped one on the serial driver, which it names; and the
// serial run keeps the build side's rows by reference instead of copying
// them.
func TestOnePipelineBothDrivers(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(71))
	db := sqldb.NewDatabase()
	mustExec(t, db, `CREATE TABLE small (k INT, name TEXT)`)
	mustExec(t, db, `CREATE TABLE big (id INT, k INT, x DOUBLE)`)
	small, _ := db.Table("small")
	big, _ := db.Table("big")
	for i := 0; i < 24; i++ {
		small.Insert([]sqlval.Value{sqlval.NewInt(int64(rng.Intn(16))), sqlval.NewString(fmt.Sprintf("n%d", rng.Intn(5)))})
	}
	for i := 0; i < 300; i++ {
		big.Insert([]sqlval.Value{sqlval.NewInt(int64(i)), sqlval.NewInt(int64(rng.Intn(20))), sqlval.NewFloat(float64(rng.Intn(1000)) / 10)})
	}
	stored := map[*sqlval.Value]bool{}
	small.Scan(func(row []sqlval.Value) bool {
		stored[&row[0]] = true
		return true
	})

	joins := []struct {
		from    string
		swapped bool
	}{
		{"small s JOIN big b ON s.k = b.k", true},
		{"big b JOIN small s ON b.k = s.k", false},
	}
	modes := []struct{ text, fallback string }{
		{`SELECT b.id, s.name, b.x FROM %s`, ""},
		{`SELECT DISTINCT s.name, b.k FROM %s`, ""},
		{`SELECT b.id, s.name FROM %s ORDER BY s.name DESC, b.k LIMIT 25`, ""},
		{`SELECT s.name, COUNT(DISTINCT b.k), SUM(b.x), MIN(b.x) FROM %s GROUP BY s.name`, "aggregate"},
	}
	for _, j := range joins {
		for _, mode := range modes {
			text := fmt.Sprintf(mode.text, j.from)
			st, err := sqlparser.Parse(text)
			if err != nil {
				t.Fatal(err)
			}
			sel := st.(*sqlparser.Select)
			plan, err := CompileOpts(db, sel, Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			r := &runner{p: plan, dst: new([][]sqlval.Value), shared: &runShared{}}
			if err := r.run(); err != nil {
				t.Fatalf("%q: %v", text, err)
			}
			if r.swapped != j.swapped {
				t.Fatalf("%q: swapped = %v, want %v", text, r.swapped, j.swapped)
			}
			if len(r.rights[0]) == 0 {
				t.Fatalf("%q: empty build side", text)
			}
			for _, row := range r.rights[0] {
				if !stored[&row[0]] {
					t.Fatalf("%q: serial build side copied a stored row", text)
				}
			}

			base, err := EvalSelectOpts(db, sel, Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			want := strings.Join(renderRows(base.Rows), "\n")
			for _, par := range []int{2, 4} {
				got, err := EvalSelectOpts(db, sel, Options{Parallelism: par})
				if err != nil {
					t.Fatalf("%q parallelism %d: %v", text, par, err)
				}
				if got.ParallelFallback != mode.fallback {
					t.Fatalf("%q parallelism %d: fallback %q, want %q", text, par, got.ParallelFallback, mode.fallback)
				}
				if g := strings.Join(renderRows(got.Rows), "\n"); g != want {
					t.Fatalf("%q: parallelism %d diverges from serial\nserial:\n%s\nparallel:\n%s", text, par, want, g)
				}
			}
		}
	}
}
