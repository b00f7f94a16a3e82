package core

import (
	"fmt"
	"strings"
	"testing"

	"crosse/internal/rdf"
	"crosse/internal/sqlexec"
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

// TestOrderByEnrichedColumnWithoutWhereEnrichment: a schema-only query
// whose ORDER BY names the column the enrichment adds must defer its tail;
// one that sorts by a base column keeps the top-K pushdown.
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
	if !strings.Contains(st.BaseSQLText, "ORDER BY elem_name LIMIT 3") || st.FinalSQLText != "" {
		t.Errorf("base-column ORDER BY must stay in the base query: base %q, final %q", st.BaseSQLText, st.FinalSQLText)
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
	if !strings.Contains(st.BaseSQLText, "ORDER BY dangerLevel DESC LIMIT 2") || st.FinalSQLText != "" {
		t.Errorf("base-column ORDER BY must stay in the base query: base %q, final %q", st.BaseSQLText, st.FinalSQLText)
	}
	if got, want := orderedRows(r), "Lead|c|high Gold|b|NULL"; got != want {
		t.Errorf("rows = %s, want %s", got, want)
	}
}
