package core

import (
	"fmt"
	"strings"
	"testing"

	"crosse/internal/rdf"
	"crosse/internal/sqlexec"
	"crosse/internal/sqlparser"
	"crosse/internal/sqlval"
)

// finalStageFixture extends the running scenario with a multi-valued
// property (row multiplication) and one whose objects mix ints and strings.
func finalStageFixture(t *testing.T) *Enricher {
	t.Helper()
	e := fixture(t)
	for _, tr := range []rdf.Triple{
		{S: smg("Mercury"), P: smg("alias"), O: lit("Hg")},
		{S: smg("Mercury"), P: smg("alias"), O: lit("quicksilver")},
		{S: smg("Mercury"), P: smg("rank"), O: rdf.NewTypedLiteral("10", rdf.XSDInteger)},
		{S: smg("Lead"), P: smg("rank"), O: rdf.NewTypedLiteral("9", rdf.XSDInteger)},
		{S: smg("Zinc"), P: smg("rank"), O: lit("medium")},
	} {
		if _, err := e.Platform.Insert("alice", tr); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// orderedRows renders a result in its own row order.
func orderedRows(r *sqlexec.Result) string {
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		out[i] = strings.Join(cells, "|")
	}
	return strings.Join(out, " ")
}

// TestFinalStage pins the in-place tail of the pipeline. The WHERE
// enrichment keeps (Mercury,a) (Lead,a) (Mercury,b) (Lead,c), in that
// arrival order.
func TestFinalStage(t *testing.T) {
	const hazardous = ` FROM elem_contained WHERE ${elem_name = HazardousWaste:c1} `
	const replace = ` ENRICH REPLACECONSTANT(c1, HazardousWaste, dangerQuery)`
	const mixed = `SELECT elem_name FROM elem_contained WHERE landfill_name = 'a' ORDER BY rank ENRICH SCHEMAEXTENSION(elem_name, rank)`
	cases := []struct {
		name, query string
		cols, rows  string // rows in output order; ignored when err is set
		err         string
	}{
		{"ties keep arrival order",
			`SELECT elem_name, landfill_name` + hazardous + `ORDER BY landfill_name` + replace,
			"elem_name,landfill_name", "Mercury|a Lead|a Mercury|b Lead|c", ""},
		{"DESC, ties still in arrival order",
			`SELECT elem_name, landfill_name` + hazardous + `ORDER BY landfill_name DESC` + replace,
			"elem_name,landfill_name", "Lead|c Mercury|b Mercury|a Lead|a", ""},
		{"NULLs of un-enriched rows sort first",
			`SELECT elem_name, landfill_name FROM elem_contained ORDER BY dangerLevel ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)`,
			"elem_name,landfill_name,dangerLevel", "Gold|b|NULL Mercury|a|high Lead|a|high Mercury|b|high Lead|c|high Zinc|a|low", ""},
		{"multi-key with mixed directions",
			`SELECT elem_name, landfill_name FROM elem_contained ORDER BY dangerLevel DESC, elem_name, landfill_name DESC ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)`,
			"elem_name,landfill_name,dangerLevel", "Zinc|a|low Lead|c|high Lead|a|high Mercury|b|high Mercury|a|high Gold|b|NULL", ""},
		{"expression over headers",
			`SELECT elem_name, landfill_name` + hazardous + `ORDER BY LENGTH(elem_name) DESC, landfill_name` + replace,
			"elem_name,landfill_name", "Mercury|a Mercury|b Lead|a Lead|c", ""},
		{"enriched column after row multiplication",
			`SELECT elem_name FROM elem_contained WHERE landfill_name = 'b' ORDER BY alias DESC ENRICH SCHEMAEXTENSION(elem_name, alias)`,
			"elem_name,alias", "Mercury|quicksilver Mercury|Hg Gold|NULL", ""},
		{"LIMIT and OFFSET window",
			`SELECT elem_name, landfill_name` + hazardous + `ORDER BY landfill_name LIMIT 2 OFFSET 1` + replace,
			"elem_name,landfill_name", "Lead|a Mercury|b", ""},
		{"LIMIT 0",
			`SELECT landfill_name` + hazardous + `ORDER BY landfill_name LIMIT 0` + replace,
			"landfill_name", "", ""},
		{"OFFSET past the end",
			`SELECT landfill_name` + hazardous + `LIMIT 5 OFFSET 9` + replace,
			"landfill_name", "", ""},
		{"hidden condition column does not leak",
			`SELECT landfill_name` + hazardous + `ORDER BY landfill_name DESC` + replace,
			"landfill_name", "c b a a", ""},
		{"mixed int/string column keeps its types",
			mixed, "elem_name,rank", "Lead|9 Mercury|10 Zinc|medium", ""},
		{"unknown ORDER BY column",
			`SELECT landfill_name` + hazardous + `ORDER BY nope` + replace,
			"", "", "core: final stage:"},
		{"hidden column is not sortable",
			`SELECT landfill_name` + hazardous + `ORDER BY __h1` + replace,
			"", "", "core: final stage:"},
	}
	for _, par := range []int{1, 2, 4} {
		e := finalStageFixture(t)
		e.SetExecOptions(ExecOptions{Parallelism: par})
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/parallelism=%d", c.name, par), func(t *testing.T) {
				r, err := e.Query("alice", c.query)
				if c.err != "" {
					if err == nil || !strings.HasPrefix(err.Error(), c.err) {
						t.Fatalf("err = %v, want prefix %q", err, c.err)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if got := strings.Join(r.Columns, ","); got != c.cols {
					t.Errorf("columns = %s, want %s", got, c.cols)
				}
				if got := orderedRows(r); got != c.rows {
					t.Errorf("rows = %s, want %s", got, c.rows)
				}
				for _, row := range r.Rows {
					if len(row) != len(r.Columns) {
						t.Errorf("row width %d under %d columns", len(row), len(r.Columns))
					}
				}
			})
		}
	}

	// The mixed column is not coerced to one type on the way out.
	e := finalStageFixture(t)
	r, err := e.Query("alice", mixed)
	if err != nil {
		t.Fatal(err)
	}
	want := []sqlval.Type{sqlval.TypeInt, sqlval.TypeInt, sqlval.TypeString}
	for i, row := range r.Rows {
		if row[1].Type() != want[i] {
			t.Errorf("rank of %v has type %v, want %v", row[0], row[1].Type(), want[i])
		}
	}
}

// TestFinalStageWindowOwnsItsRows: a small window of the joined rows is
// copied out, so the result does not pin every joined row, and a window
// of most of them hands the rows over; the joined rows are left as they
// were either way.
func TestFinalStageWindowOwnsItsRows(t *testing.T) {
	const n = 1200
	backing := make([]sqlval.Value, 2*n) // one block, like the join's arena
	rows := make([][]sqlval.Value, n)
	joined := make(map[*sqlval.Value]bool, n)
	for i := range rows {
		rows[i] = backing[2*i : 2*i+2 : 2*i+2]
		rows[i][0], rows[i][1] = sqlval.NewInt(int64(i)), sqlval.NewString(fmt.Sprintf("r%04d", i))
		joined[&rows[i][0]] = true
	}
	cols := []sqlexec.ScopeCol{{Name: "k"}, {Name: "name"}}
	for _, c := range []struct {
		tail        string
		first, step int64 // k of the window's first row, and between rows
		size        int
		handedOver  bool
	}{
		{"ORDER BY k DESC LIMIT 10", n - 1, -1, 10, false},
		{"LIMIT 10 OFFSET 5", 5, 1, 10, false},
		{"ORDER BY k DESC", n - 1, -1, n, true},
		{"LIMIT 2000", 0, 1, n, true},
	} {
		sel, err := sqlparser.ParseSelect("SELECT k, name FROM sesql_result " + c.tail)
		if err != nil {
			t.Fatal(err)
		}
		tail, err := sqlexec.CompileTail(cols, sel)
		if err != nil {
			t.Fatal(err)
		}
		win, err := tail.Apply(rows)
		if err != nil {
			t.Fatal(err)
		}
		if len(win) != c.size {
			t.Fatalf("%s: %d rows, want %d", c.tail, len(win), c.size)
		}
		for i, row := range win {
			if k := c.first + int64(i)*c.step; row[0].Int() != k || len(row) != 2 || cap(row) != 2 {
				t.Fatalf("%s: row %d = %v (cap %d), want k %d", c.tail, i, row, cap(row), k)
			}
			if joined[&row[0]] != c.handedOver {
				t.Fatalf("%s: row %d shares the joined rows' block: %v, want %v", c.tail, i, joined[&row[0]], c.handedOver)
			}
		}
		for i, row := range rows {
			if row[0].Int() != int64(i) {
				t.Fatalf("%s: joined row %d now holds k %v", c.tail, i, row[0])
			}
		}
	}
}

// TestOrderByEnrichedColumnWithoutWhereEnrichment: a schema-only query
// whose ORDER BY names the column the enrichment adds must defer its tail;
// one that sorts by a base column keeps the top-K pushdown, and the final
// stage only re-applies the LIMIT after the fan-out.
func TestOrderByEnrichedColumnWithoutWhereEnrichment(t *testing.T) {
	e := fixture(t)
	r, st, err := e.QueryStats("alice", `SELECT elem_name, landfill_name FROM elem_contained
ORDER BY dangerLevel LIMIT 3 ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)`)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := orderedRows(r), "Gold|b|NULL Mercury|a|high Lead|a|high"; got != want {
		t.Errorf("rows = %s, want %s", got, want)
	}
	if strings.Contains(st.BaseSQLText, "ORDER BY") || !strings.Contains(st.FinalSQLText, "FROM sesql_result ORDER BY dangerLevel LIMIT 3") {
		t.Errorf("tail not deferred: base %q, final %q", st.BaseSQLText, st.FinalSQLText)
	}

	_, st, err = e.QueryStats("alice", `SELECT elem_name, landfill_name FROM elem_contained
ORDER BY elem_name LIMIT 3 ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(st.BaseSQLText, "ORDER BY elem_name LIMIT 3") || st.FinalSQLText != "SELECT elem_name, landfill_name, dangerLevel FROM sesql_result LIMIT 3" {
		t.Errorf("base-column ORDER BY must stay in the base query, the window re-applied after the fan-out: base %q, final %q", st.BaseSQLText, st.FinalSQLText)
	}
}

// TestOrderByClashSuffixedEnrichedColumn: when the base result already has
// a column named after the property, the enrichment adds dangerLevel_2.
// ORDER BY on that name must defer the tail like any enriched column, while
// ORDER BY dangerLevel names the base column and stays in the base query.
func TestOrderByClashSuffixedEnrichedColumn(t *testing.T) {
	e := fixture(t)
	for _, par := range []int{1, 2, 4} {
		e.SetExecOptions(ExecOptions{Parallelism: par})
		r, st, err := e.QueryStats("alice", `SELECT elem_name, landfill_name AS dangerLevel FROM elem_contained
ORDER BY dangerLevel_2 LIMIT 3 ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)`)
		if err != nil {
			t.Fatalf("parallelism=%d: %v", par, err)
		}
		if got, want := strings.Join(r.Columns, ","), "elem_name,dangerLevel,dangerLevel_2"; got != want {
			t.Errorf("parallelism=%d: columns = %s, want %s", par, got, want)
		}
		if got, want := orderedRows(r), "Gold|b|NULL Mercury|a|high Lead|a|high"; got != want {
			t.Errorf("parallelism=%d: rows = %s, want %s", par, got, want)
		}
		if strings.Contains(st.BaseSQLText, "ORDER BY") {
			t.Errorf("parallelism=%d: tail not deferred: base %q", par, st.BaseSQLText)
		}
	}

	r, st, err := e.QueryStats("alice", `SELECT elem_name, landfill_name AS dangerLevel FROM elem_contained
ORDER BY dangerLevel DESC LIMIT 2 ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(st.BaseSQLText, "ORDER BY dangerLevel DESC LIMIT 2") || st.FinalSQLText != "SELECT elem_name, dangerLevel, dangerLevel_2 FROM sesql_result LIMIT 2" {
		t.Errorf("base-column ORDER BY must stay in the base query, the window re-applied after the fan-out: base %q, final %q", st.BaseSQLText, st.FinalSQLText)
	}
	if got, want := orderedRows(r), "Lead|c|high Gold|b|NULL"; got != want {
		t.Errorf("rows = %s, want %s", got, want)
	}
}

// TestLimitAfterFanOut: a LIMIT / OFFSET the base query could apply on its
// own still bounds the enriched answer when a multi-valued property fans a
// base row out. With Mercury dangerLevel both high and extreme, the base
// rows of landfill b (Mercury, Gold under ORDER BY elem_name DESC) yield
// three result rows; the base query keeps its top offset+limit rows and
// the final stage cuts the window out of the joined rows.
func TestLimitAfterFanOut(t *testing.T) {
	const q = `SELECT elem_name FROM elem_contained WHERE landfill_name = 'b' ORDER BY elem_name DESC `
	const enrich = ` ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)`
	cases := []struct{ tail, rows, base, final string }{
		{"", "Mercury|high Mercury|extreme Gold|NULL", "ORDER BY elem_name DESC", ""},
		{"LIMIT 2", "Mercury|high Mercury|extreme", "ORDER BY elem_name DESC LIMIT 2", "SELECT elem_name, dangerLevel FROM sesql_result LIMIT 2"},
		{"LIMIT 1 OFFSET 1", "Mercury|extreme", "ORDER BY elem_name DESC LIMIT 2", "SELECT elem_name, dangerLevel FROM sesql_result LIMIT 1 OFFSET 1"},
		{"LIMIT 5 OFFSET 2", "Gold|NULL", "ORDER BY elem_name DESC LIMIT 7", "SELECT elem_name, dangerLevel FROM sesql_result LIMIT 5 OFFSET 2"},
		{"OFFSET 1", "Mercury|extreme Gold|NULL", "ORDER BY elem_name DESC", "SELECT elem_name, dangerLevel FROM sesql_result OFFSET 1"},
		{"LIMIT 0", "", "ORDER BY elem_name DESC LIMIT 0", "SELECT elem_name, dangerLevel FROM sesql_result LIMIT 0"},
		{"LIMIT 2 OFFSET 3", "", "ORDER BY elem_name DESC LIMIT 5", "SELECT elem_name, dangerLevel FROM sesql_result LIMIT 2 OFFSET 3"},
	}
	e := fixture(t)
	if _, err := e.Platform.Insert("alice", rdf.Triple{S: smg("Mercury"), P: smg("dangerLevel"), O: lit("extreme")}); err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, 4} {
		e.SetExecOptions(ExecOptions{Parallelism: par})
		for _, c := range cases {
			r, st, err := e.QueryStats("alice", q+c.tail+enrich)
			if err != nil {
				t.Fatalf("parallelism=%d %s: %v", par, c.tail, err)
			}
			if got := orderedRows(r); got != c.rows {
				t.Errorf("parallelism=%d %s: rows = %q, want %q", par, c.tail, got, c.rows)
			}
			if !strings.HasSuffix(st.BaseSQLText, c.base) || st.FinalSQLText != c.final {
				t.Errorf("parallelism=%d %s: base %q (want suffix %q), final %q (want %q)", par, c.tail, st.BaseSQLText, c.base, st.FinalSQLText, c.final)
			}
		}
	}
}

// TestFinalStageComposition pins enrichment steps that compose: a step
// whose attribute is the previous step's column, two multi-valued steps
// (their fan-outs multiply), a SCHEMAREPLACEMENT fan-out under a LIMIT and
// a star projection.
func TestFinalStageComposition(t *testing.T) {
	cases := []struct {
		name, query string
		cols, rows  string
	}{
		{"attribute is the previous step's column",
			`SELECT elem_name FROM elem_contained WHERE landfill_name = 'a' ORDER BY elem_name ENRICH SCHEMAEXTENSION(elem_name, oreAssemblage) SCHEMAEXTENSION(oreAssemblage, dangerLevel)`,
			"elem_name,oreAssemblage,dangerLevel", "Lead|Zinc|low Mercury|Lead|high Zinc|NULL|NULL"},
		{"two multi-valued steps multiply",
			`SELECT elem_name FROM elem_contained WHERE landfill_name = 'b' ENRICH SCHEMAEXTENSION(elem_name, alias) SCHEMAEXTENSION(elem_name, dangerLevel)`,
			"elem_name,alias,dangerLevel", "Gold|NULL|NULL Mercury|Hg|high Mercury|Hg|extreme Mercury|quicksilver|high Mercury|quicksilver|extreme"},
		{"two multi-valued steps under LIMIT and OFFSET",
			`SELECT elem_name FROM elem_contained WHERE landfill_name = 'b' ORDER BY elem_name DESC LIMIT 3 OFFSET 1 ENRICH SCHEMAEXTENSION(elem_name, alias) SCHEMAEXTENSION(elem_name, dangerLevel)`,
			"elem_name,alias,dangerLevel", "Mercury|Hg|extreme Mercury|quicksilver|high Mercury|quicksilver|extreme"},
		{"SCHEMAREPLACEMENT fan-out under LIMIT",
			`SELECT elem_name, landfill_name FROM elem_contained ORDER BY landfill_name DESC, elem_name LIMIT 4 ENRICH SCHEMAREPLACEMENT(elem_name, alias)`,
			"alias,landfill_name", "NULL|c NULL|b Hg|b quicksilver|b"},
		{"star projection",
			`SELECT * FROM elem_contained WHERE landfill_name = 'b' ORDER BY elem_name DESC LIMIT 2 ENRICH SCHEMAEXTENSION(elem_name, alias)`,
			"elem_name,landfill_name,alias", "Mercury|b|Hg Mercury|b|quicksilver"},
	}
	e := finalStageFixture(t)
	if _, err := e.Platform.Insert("alice", rdf.Triple{S: smg("Mercury"), P: smg("dangerLevel"), O: lit("extreme")}); err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, 4} {
		e.SetExecOptions(ExecOptions{Parallelism: par})
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/parallelism=%d", c.name, par), func(t *testing.T) {
				r, err := e.Query("alice", c.query)
				if err != nil {
					t.Fatal(err)
				}
				if got := strings.Join(r.Columns, ","); got != c.cols {
					t.Errorf("columns = %s, want %s", got, c.cols)
				}
				if got := orderedRows(r); got != c.rows {
					t.Errorf("rows = %s, want %s", got, c.rows)
				}
			})
		}
	}
}

// TestUnresolvableEnrichmentAttribute: an attribute the SELECT clause does
// not project fails when the shape compiles, with the same error as ever,
// and only after the user is resolved: an unknown user hears about the user.
func TestUnresolvableEnrichmentAttribute(t *testing.T) {
	e := fixture(t)
	const q = `SELECT landfill_name FROM elem_contained ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)`
	for i := 0; i < 2; i++ {
		_, err := e.Query("alice", q)
		if err == nil || err.Error() != `core: enrichment attribute "elem_name" is not in the SELECT clause` {
			t.Errorf("round %d: err = %v", i, err)
		}
	}
	if _, err := e.Query("ghost", q); err == nil || strings.Contains(err.Error(), "enrichment attribute") {
		t.Errorf("unknown user: err = %v, want the user's error", err)
	}
}

// morselFixture is a fixture whose dangerLevel extract passes the SPARQL
// executor's morsel gate (2 048 head matches) over a base table of 6 000
// elem_contained rows over 2 400 elements, most with one dangerLevel,
// every seventh with two (a fan-out), every eleventh with none (a NULL).
func morselFixture(t *testing.T) *Enricher {
	t.Helper()
	e := fixture(t)
	ec, _ := e.DB.Catalog().Table("elem_contained")
	for i := 0; i < 6000; i++ {
		ec.Insert([]sqlval.Value{sqlval.NewString(fmt.Sprintf("E%04d", i*7%2400)), sqlval.NewString(fmt.Sprintf("L%02d", i%40))})
	}
	for j := 0; j < 2400; j++ {
		if j%11 == 0 {
			continue
		}
		levels := []string{fmt.Sprintf("level%d", j%5)}
		if j%7 == 0 {
			levels = append(levels, "extreme")
		}
		for _, l := range levels {
			if _, err := e.Platform.Insert("alice", rdf.Triple{S: smg(fmt.Sprintf("E%04d", j)), P: smg("dangerLevel"), O: lit(l)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return e
}

// TestEnrichedMorselPathParity compares enriched answers whose extract
// runs on the SPARQL morsel path: over a plain base, a base ORDER BY with
// and without a window, and with an ORDER BY on the enriched column,
// deferred to the final stage. Each must give the same rows, in the same
// order, at Parallelism 1, 2 and 4, and at 2 and 4 no SPARQL query may
// fall back to serial.
func TestEnrichedMorselPathParity(t *testing.T) {
	const enrich = ` ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)`
	cases := []struct {
		name, query string
		deferred    bool
	}{
		{"plain base", `SELECT elem_name, landfill_name FROM elem_contained` + enrich, false},
		{"base ORDER BY", `SELECT elem_name, landfill_name FROM elem_contained ORDER BY landfill_name DESC, elem_name` + enrich, false},
		{"base ORDER BY window", `SELECT elem_name, landfill_name FROM elem_contained ORDER BY elem_name LIMIT 40 OFFSET 3000` + enrich, false},
		{"deferred enriched ORDER BY", `SELECT elem_name, landfill_name FROM elem_contained ORDER BY dangerLevel DESC, landfill_name LIMIT 100 OFFSET 20` + enrich, true},
	}
	want := make([]string, len(cases))
	for _, par := range []int{1, 2, 4} {
		e := morselFixture(t)
		e.SetExecOptions(ExecOptions{Parallelism: par})
		for i, c := range cases {
			r, st, err := e.QueryStats("alice", c.query)
			if err != nil {
				t.Fatalf("%s parallelism=%d: %v", c.name, par, err)
			}
			if deferred := st.FinalSQLText != "" && strings.Contains(st.FinalSQLText, "ORDER BY"); deferred != c.deferred {
				t.Fatalf("%s: base %q, final %q: ORDER BY deferred = %v, want %v", c.name, st.BaseSQLText, st.FinalSQLText, deferred, c.deferred)
			}
			if par > 1 && st.ParallelFallback != "" {
				t.Errorf("%s parallelism=%d: fell back (%q)", c.name, par, st.ParallelFallback)
			}
			got := orderedRows(r)
			if par == 1 {
				want[i] = got
				continue
			}
			if got != want[i] {
				t.Errorf("%s: parallelism %d diverges from serial", c.name, par)
			}
		}
	}
}
