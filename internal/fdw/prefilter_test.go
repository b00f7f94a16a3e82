package fdw

// prefilter_test.go — the scan request's where list: the executor sends a
// foreign scan's comparison conjuncts, the server drops the rows they
// reject before the rows travel, and the client keeps every conjunct as
// its own filter.

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"crosse/internal/engine"
	"crosse/internal/sqldb"
	"crosse/internal/sqlexec"
	"crosse/internal/sqlparser"
	"crosse/internal/sqlval"
)

// TestRangePushdownShipsOnlyMatches runs range queries over a foreign
// table: each ships only the rows it returns, and returns what the same
// query returns on the remote node's own catalog.
func TestRangePushdownShipsOnlyMatches(t *testing.T) {
	remote := newRemote(t, 100)
	c := pipePair(t, remote)
	local := engine.Open()
	ft, err := c.ForeignTable("eu_registry", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := local.RegisterForeign(ft); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`SELECT landfill FROM eu_registry WHERE tons >= 120`,
		`SELECT landfill FROM eu_registry WHERE 30 > tons AND country <> 'IT'`,
		`SELECT landfill, tons FROM eu_registry WHERE country = 'FR' AND tons < 60 AND tons >= 6`,
		`SELECT COUNT(*) FROM eu_registry WHERE tons = 4.5`,
	} {
		_, before := c.Stats()
		pushed, err := local.QueryOpts(q, sqlexec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, after := c.Stats()
		fetched, err := sqlexec.Exec(remote, q)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := renderSorted(pushed.Rows), renderSorted(fetched.Rows); g != w {
			t.Fatalf("%s: pushed %s, fetched %s", q, g, w)
		}
		want := len(pushed.Rows)
		if strings.Contains(q, "COUNT") {
			want = int(pushed.Rows[0][0].Int())
		}
		if shipped := after - before; shipped != want {
			t.Fatalf("%s: shipped %d rows for %d matches", q, shipped, want)
		}
	}
}

func renderSorted(rows [][]sqlval.Value) string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return strings.Join(out, ";")
}

// TestPrefilterKeepsErroringRows: a comparison that errors keeps the row,
// so the local filter raises the error the query raises on the remote
// node's own catalog.
func TestPrefilterKeepsErroringRows(t *testing.T) {
	remote := newRemote(t, 8)
	c := pipePair(t, remote)
	ft, err := c.ForeignTable("eu_registry", "")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	where := []sqldb.Comparison{{Col: "country", Op: ">", Val: sqlval.NewInt(3)}, {Col: "tons", Op: "<", Val: sqlval.NewFloat(0)}}
	if err := ft.ScanWhere(nil, "", sqlval.Null, where, func([]sqlval.Value) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("shipped %d of 8 rows whose first comparison errors", n)
	}
	local := engine.Open()
	if err := local.RegisterForeign(ft); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT landfill FROM eu_registry WHERE country > 3 AND tons < 0`
	_, pushedErr := local.QueryOpts(q, sqlexec.Options{})
	_, fetchedErr := sqlexec.Exec(remote, q)
	if pushedErr == nil || fmt.Sprint(pushedErr) != fmt.Sprint(fetchedErr) {
		t.Fatalf("pushed error %v, on the remote catalog %v", pushedErr, fetchedErr)
	}
}

// TestPrefilterBadWhere: an unknown column or operator fails the request
// with a remote error, and the connection stays usable.
func TestPrefilterBadWhere(t *testing.T) {
	c := pipePair(t, newRemote(t, 4))
	ft, err := c.ForeignTable("eu_registry", "")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cond sqldb.Comparison
		want string
	}{
		{sqldb.Comparison{Col: "nocol", Op: "=", Val: sqlval.NewInt(1)}, `fdw: bad where: unknown column "nocol"`},
		{sqldb.Comparison{Col: "tons", Op: "LIKE", Val: sqlval.NewInt(1)}, `fdw: bad where: unknown operator "LIKE"`},
	} {
		err := ft.ScanWhere(context.Background(), "country", sqlval.NewString("IT"), []sqldb.Comparison{tc.cond}, func([]sqlval.Value) bool { return true })
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%+v: error %v, want %q", tc.cond, err, tc.want)
		}
	}
	if _, err := c.Tables(); err != nil {
		t.Fatalf("client wedged after a bad where: %v", err)
	}
}

// preFilterPalette is the value domain of the pre-filter fuzzer: NULL,
// the signed zeros, the infinities, NaN, the int64 extremes, integers past
// 2^53 beside the DOUBLEs they round to, strings and booleans. Bytes past
// the palette read a raw int64 or float64 from the input.
var preFilterPalette = []sqlval.Value{
	sqlval.Null,
	sqlval.NewInt(0), sqlval.NewInt(1), sqlval.NewInt(-1),
	sqlval.NewInt(math.MinInt64), sqlval.NewInt(math.MaxInt64),
	sqlval.NewInt(1<<53 + 1), sqlval.NewInt(1 << 53),
	sqlval.NewFloat(0), sqlval.NewFloat(math.Copysign(0, -1)), sqlval.NewFloat(1), sqlval.NewFloat(-2.5),
	sqlval.NewFloat(1 << 53), sqlval.NewFloat(math.Inf(1)), sqlval.NewFloat(math.Inf(-1)), sqlval.NewFloat(math.NaN()),
	sqlval.NewString(""), sqlval.NewString("a"), sqlval.NewString("b"), sqlval.NewString("1"),
	sqlval.NewBool(true), sqlval.NewBool(false),
}

// preFilterOps maps each wire operator to the parser's, and to the one
// that holds with the operands swapped.
var preFilterOps = []struct {
	wire       string
	op, mirror sqlparser.BinOpKind
}{
	{"=", sqlparser.OpEq, sqlparser.OpEq}, {"<>", sqlparser.OpNe, sqlparser.OpNe},
	{"<", sqlparser.OpLt, sqlparser.OpGt}, {"<=", sqlparser.OpLe, sqlparser.OpGe},
	{">", sqlparser.OpGt, sqlparser.OpLt}, {">=", sqlparser.OpGe, sqlparser.OpLe},
}

const preFilterWidth = 4

// checkPreFilter decodes a row and a where list from data and checks the
// server's pre-filter against the same conjuncts compiled by the executor
// and evaluated in order, as the executor evaluates a scan's filters: the
// server may drop the row only when they are not all True and raise no
// error. Each conjunct is compiled as `col op val` or mirrored as
// `val op' col`, the form tryPushCmp flips before sending.
func checkPreFilter(t *testing.T, data []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	value := func() sqlval.Value {
		k := next()
		if k < 224 {
			return preFilterPalette[k%len(preFilterPalette)]
		}
		var raw [8]byte
		for i := range raw {
			raw[i] = byte(next())
		}
		if k%2 == 0 {
			return sqlval.NewInt(int64(binary.BigEndian.Uint64(raw[:])))
		}
		return sqlval.NewFloat(math.Float64frombits(binary.BigEndian.Uint64(raw[:])))
	}
	row := make([]sqlval.Value, preFilterWidth)
	schema := make(sqldb.Schema, preFilterWidth)
	cols := make([]sqlexec.ScopeCol, preFilterWidth)
	for i := range row {
		row[i] = value()
		schema[i] = sqldb.Column{Name: fmt.Sprintf("c%d", i), Type: sqlval.TypeString}
		cols[i] = sqlexec.ScopeCol{Name: schema[i].Name}
	}
	var where []wireCond
	var local []*sqlexec.Predicate
	for n := next() % 5; n > 0; n-- {
		col, op, v := fmt.Sprintf("c%d", next()%preFilterWidth), preFilterOps[next()%len(preFilterOps)], value()
		where = append(where, wireCond{Col: col, Op: op.wire, Val: appendValue(nil, v)})
		var e sqlparser.Expr = &sqlparser.BinExpr{Op: op.op, L: &sqlparser.ColRef{Name: col}, R: &sqlparser.Literal{Val: v}}
		if next()%2 == 1 {
			e = &sqlparser.BinExpr{Op: op.mirror, L: &sqlparser.Literal{Val: v}, R: &sqlparser.ColRef{Name: col}}
		}
		p, err := sqlexec.CompilePredicate(cols, e)
		if err != nil {
			t.Fatalf("%s: %v", e.SQL(), err)
		}
		local = append(local, p)
	}
	filter, err := compileWhere(schema, where)
	if err != nil {
		t.Fatal(err)
	}
	passes := true // the executor's filters keep the row or raise an error
	for _, p := range local {
		tri, err := p.EvalBool(row)
		if err != nil {
			break
		}
		if tri != sqlval.True {
			passes = false
			break
		}
	}
	if passes && !filter.keep(row) {
		t.Fatalf("row %v: the server drops a row the filters %+v keep or fail on", row, where)
	}
}

// FuzzPushdownPreFilter checks the server's pre-filter against the
// executor on random typed rows and where lists: NULL, ±0, ±Inf, NaN,
// the int64 extremes, INTEGERs past 2^53 against DOUBLEs, strings, bools
// and class mismatches. The server never drops a row the executor's own
// filters would keep or raise an error on.
func FuzzPushdownPreFilter(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{9, 1, 2, 3, 4, 1, 0, 5, 15, 0},        // NaN against +0
		{6, 12, 0, 0, 2, 0, 5, 12, 1, 7, 1, 1}, // 2^53+1 against 2^53.0, both forms
		{16, 17, 20, 0, 3, 0, 1, 1, 2, 2, 18, 0, 3, 3, 4, 0},
		{0, 1, 2, 3, 4, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5},
	} {
		f.Add(seed)
	}
	f.Fuzz(checkPreFilter)
}

// TestPreFilterMatchesExecutor runs the fuzz property over a fixed sweep
// of inputs, so the plain test run covers it too.
func TestPreFilterMatchesExecutor(t *testing.T) {
	data := make([]byte, 48)
	for seed := uint64(1); seed <= 20000; seed++ {
		x := seed
		for i := range data {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			data[i] = byte(x)
		}
		checkPreFilter(t, data)
	}
}
