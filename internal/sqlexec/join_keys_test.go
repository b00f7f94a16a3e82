package sqlexec

// join_keys_test.go — the typed equi-join table (run.go: joinTable)
// against a nested loop over sqlval.Compare: on key columns that mix TEXT,
// INTEGER, DOUBLE, BOOLEAN and NULL, the pairs a join returns, and a LEFT
// JOIN's NULL-extended rows, must be the loop's, in its order.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"crosse/internal/oracle"
	"crosse/internal/sqldb"
	"crosse/internal/sqlval"
)

// joinKeyPalette is the key domain of the join fuzzer, by class: strings;
// integers at and past ±2^53 and MinInt64; DOUBLE NaN (two bit patterns),
// ±0, ±Inf and ±2^53 beside 1; BOOLEANs. NULL joins every class.
var joinKeyPalette = [][]sqlval.Value{
	{sqlval.NewString(""), sqlval.NewString("a"), sqlval.NewString("b"), sqlval.NewString("1")},
	{
		sqlval.NewInt(0), sqlval.NewInt(1), sqlval.NewInt(1 << 53), sqlval.NewInt(1<<53 + 1), sqlval.NewInt(1<<53 - 1),
		sqlval.NewInt(-(1<<53 + 1)), sqlval.NewInt(math.MinInt64),
		sqlval.NewFloat(math.NaN()), sqlval.NewFloat(-math.NaN()), sqlval.NewFloat(0), sqlval.NewFloat(math.Copysign(0, -1)), sqlval.NewFloat(math.Inf(1)),
		sqlval.NewFloat(math.Inf(-1)), sqlval.NewFloat(1 << 53), sqlval.NewFloat(1), sqlval.NewFloat(-(1 << 53)),
		sqlval.NewFloat(-9223372036854775808.0),
	},
	{sqlval.NewBool(true), sqlval.NewBool(false)},
}

// keyRel is a two-column relation (id INT, k TEXT) whose k values are
// handed to the executor as they are, whatever their type, as a foreign
// table's are.
type keyRel struct {
	name string
	rows [][]sqlval.Value
}

func (r keyRel) Name() string { return r.name }
func (r keyRel) Schema() sqldb.Schema {
	return sqldb.Schema{{Name: "id", Type: sqlval.TypeInt}, {Name: "k", Type: sqlval.TypeString}}
}
func (r keyRel) Scan(fn func([]sqlval.Value) bool) error {
	for _, row := range r.rows {
		if !fn(row) {
			break
		}
	}
	return nil
}

// joinKeyRows decodes bytes into two key columns, as rows (id, key). The
// first byte picks the classes the keys are drawn from — one class, so
// the oracle can compare every pair, or all of them mixed; a key is NULL
// one time in eight.
func joinKeyRows(data []byte) (left, right [][]sqlval.Value) {
	g := &kernelGen{data: data}
	var pal []sqlval.Value
	switch c := g.next() % 4; c {
	case 3:
		for _, class := range joinKeyPalette {
			pal = append(pal, class...)
		}
	default:
		pal = joinKeyPalette[c]
	}
	column := func(n int) [][]sqlval.Value {
		rows := make([][]sqlval.Value, n)
		for i := range rows {
			b := g.next()
			k := sqlval.Null
			if b%8 != 7 {
				k = pal[(b/8)%len(pal)]
			}
			rows[i] = []sqlval.Value{sqlval.NewInt(int64(i)), k}
		}
		return rows
	}
	left = column(g.next() % 12)
	right = column(g.next() % 24)
	return left, right
}

// loopJoin is the model: every (left, right) pair whose keys Compare
// equal, left rows in order and each one's right rows in order; with
// outer, a left row without a pair once beside a NULL.
func loopJoin(left, right [][]sqlval.Value, outer bool) string {
	var sb strings.Builder
	for _, l := range left {
		matched := false
		for _, r := range right {
			if c, err := sqlval.Compare(l[1], r[1]); err == nil && c == 0 {
				fmt.Fprintf(&sb, "%v-%v;", l[0], r[0])
				matched = true
			}
		}
		if outer && !matched {
			fmt.Fprintf(&sb, "%v-NULL;", l[0])
		}
	}
	return sb.String()
}

func renderPairs(rows [][]sqlval.Value) string {
	var sb strings.Builder
	for _, row := range rows {
		fmt.Fprintf(&sb, "%v-%v;", row[0], row[1])
	}
	return sb.String()
}

// checkJoinKeys runs the property on one input.
func checkJoinKeys(t *testing.T, data []byte) {
	left, right := joinKeyRows(data)

	// The table itself: each probe's verified chain is the loop's row set.
	table := buildHash(right, 1)
	var got strings.Builder
	for _, l := range left {
		for ri := table.first(l[1]); ri >= 0; ri = table.next[ri] {
			if c, ok := sqlval.TryCompare(l[1], right[ri][1]); ok && c == 0 {
				fmt.Fprintf(&got, "%v-%v;", l[0], right[ri][0])
			}
		}
	}
	if want := loopJoin(left, right, false); got.String() != want {
		t.Fatalf("left %v, right %v:\n table %s\n  loop %s", left, right, got.String(), want)
	}

	// Through the executor, the hash join and the LEFT JOIN; the oracle
	// must agree wherever it can compare every pair.
	db := sqldb.NewDatabase()
	for _, rel := range []keyRel{{"l", left}, {"r", right}} {
		if err := db.RegisterForeign(rel); err != nil {
			t.Fatal(err)
		}
	}
	for _, outer := range []bool{false, true} {
		q := `SELECT l.id, r.id FROM l JOIN r ON l.k = r.k`
		if outer {
			q = `SELECT l.id, r.id FROM l LEFT JOIN r ON l.k = r.k`
		}
		want := loopJoin(left, right, outer)
		res, err := Exec(db, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if got := renderPairs(res.Rows); got != want {
			t.Fatalf("%s on left %v, right %v:\n executor %s\n     loop %s", q, left, right, got, want)
		}
		if ans, err := oracle.SQL(db, mustParseSelect(t, q)); err == nil {
			if got := renderPairs(ans.Rows); got != want {
				t.Fatalf("%s on left %v, right %v:\n oracle %s\n   loop %s", q, left, right, got, want)
			}
		}
	}
}

// FuzzJoinKeys is differential: on any two key columns, the typed join
// table, the executor's hash join and its LEFT JOIN return the nested
// loop's pairs in the loop's order.
func FuzzJoinKeys(f *testing.F) {
	for _, seed := range [][]byte{
		{1, 4, 6, 16, 24, 32, 0, 8, 16, 24, 32, 40},          // integers and doubles at 2^53
		{1, 3, 5, 56, 64, 72, 56, 64, 72, 80, 88},            // NaN, +0 and -0 on both sides
		{3, 5, 7, 0, 8, 7, 200, 208, 0, 8, 7, 200, 208, 216}, // every class, NULLs
		{0, 4, 4, 0, 8, 16, 24, 24, 16, 8, 0},                // strings only
		{2, 3, 3, 0, 8, 15, 8, 0, 7},                         // booleans and NULL
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkJoinKeys(t, data) })
}

// The same property over a fixed pseudo-random corpus, so every test run
// covers far more than the seed inputs.
func TestJoinKeysMatchNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	data := make([]byte, 40)
	for i := 0; i < 2000; i++ {
		rng.Read(data)
		checkJoinKeys(t, data)
	}
}

// A hash build allocates the same whether its keys are all equal or all
// distinct: the table is two slices and a map sized once, not a bucket
// per key.
func TestHashBuildAllocsFlat(t *testing.T) {
	const n = 4096
	build := func(distinct int) float64 {
		rows := make([][]sqlval.Value, n)
		for i := range rows {
			rows[i] = []sqlval.Value{sqlval.NewString(fmt.Sprintf("k%d", i%distinct))}
		}
		return testing.AllocsPerRun(20, func() { buildHash(rows, 0) })
	}
	one, all := build(1), build(n)
	if all > one+2 || all > 64 {
		t.Fatalf("hash build over %d rows: %.0f allocs with one key, %.0f with %d distinct keys", n, one, all, n)
	}
}
