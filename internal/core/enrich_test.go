package core

import (
	"sort"
	"strings"
	"testing"

	"crosse/internal/engine"
	"crosse/internal/kb"
	"crosse/internal/rdf"
	"crosse/internal/sqlexec"
)

func smg(local string) rdf.Term { return rdf.NewIRI(DefaultIRIPrefix + local) }

func lit(s string) rdf.Term { return rdf.NewLiteral(s) }

// fixture builds the paper's running SmartGround scenario: the Fig. 3
// databank fragment plus alice's contextual knowledge base.
func fixture(t *testing.T) *Enricher {
	t.Helper()
	db := engine.Open()
	if _, err := db.ExecScript(`
		CREATE TABLE landfill (name TEXT PRIMARY KEY, city TEXT);
		CREATE TABLE elem_contained (elem_name TEXT, landfill_name TEXT);
		INSERT INTO landfill VALUES ('a', 'Torino'), ('b', 'Milano'), ('c', 'Lyon');
		INSERT INTO elem_contained VALUES
			('Mercury', 'a'), ('Lead', 'a'), ('Zinc', 'a'),
			('Gold', 'b'), ('Mercury', 'b'),
			('Lead', 'c');
	`); err != nil {
		t.Fatal(err)
	}

	p := kb.NewPlatform()
	if err := p.RegisterUser("alice"); err != nil {
		t.Fatal(err)
	}
	add := func(s, prop string, o rdf.Term) {
		t.Helper()
		if _, err := p.Insert("alice", rdf.Triple{S: smg(s), P: smg(prop), O: o}); err != nil {
			t.Fatal(err)
		}
	}
	add("Mercury", "dangerLevel", lit("high"))
	add("Lead", "dangerLevel", lit("high"))
	add("Zinc", "dangerLevel", lit("low"))
	add("Mercury", "isA", smg("HazardousWaste"))
	add("Lead", "isA", smg("HazardousWaste"))
	add("Asbestos", "isA", smg("HazardousWaste"))
	add("Torino", "inCountry", smg("Italy"))
	add("Milano", "inCountry", smg("Italy"))
	add("Lyon", "inCountry", smg("France"))
	add("Mercury", "oreAssemblage", smg("Lead"))
	add("Lead", "oreAssemblage", smg("Zinc"))

	if err := p.RegisterQuery("", "dangerQuery",
		`SELECT ?x WHERE { ?x <`+DefaultIRIPrefix+`isA> <`+DefaultIRIPrefix+`HazardousWaste> }`); err != nil {
		t.Fatal(err)
	}
	return New(db, p, nil)
}

func resultRows(r *sqlexec.Result) []string {
	var out []string
	for _, row := range r.Rows {
		var parts []string
		for _, v := range row {
			parts = append(parts, v.String())
		}
		out = append(out, strings.Join(parts, "|"))
	}
	sort.Strings(out)
	return out
}

func TestPaperExample41SchemaExtension(t *testing.T) {
	e := fixture(t)
	r, err := e.Query("alice", `SELECT elem_name, landfill_name
FROM elem_contained
WHERE landfill_name = 'a'
ENRICH
SCHEMAEXTENSION( elem_name, dangerLevel)`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(r.Columns, ",") != "elem_name,landfill_name,dangerLevel" {
		t.Errorf("columns = %v", r.Columns)
	}
	want := []string{"Lead|a|high", "Mercury|a|high", "Zinc|a|low"}
	if got := resultRows(r); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestPaperExample42SchemaReplacement(t *testing.T) {
	e := fixture(t)
	r, err := e.Query("alice", `SELECT name, city
FROM landfill
ENRICH
SCHEMAREPLACEMENT(city, inCountry)`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(r.Columns, ",") != "name,inCountry" {
		t.Errorf("columns = %v", r.Columns)
	}
	want := []string{"a|Italy", "b|Italy", "c|France"}
	if got := resultRows(r); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestPaperExample43BoolSchemaExtension(t *testing.T) {
	e := fixture(t)
	r, err := e.Query("alice", `SELECT elem_name
FROM elem_contained
WHERE landfill_name = 'a'
ENRICH
BOOLSCHEMAEXTENSION( elem_name, isA, HazardousWaste)`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(r.Columns, ",") != "elem_name,isA" {
		t.Errorf("columns = %v", r.Columns)
	}
	want := []string{"Lead|true", "Mercury|true", "Zinc|false"}
	if got := resultRows(r); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestPaperExample44BoolSchemaReplacement(t *testing.T) {
	e := fixture(t)
	r, err := e.Query("alice", `SELECT name, city
FROM landfill
ENRICH
BOOLSCHEMAREPLACEMENT(city, inCountry, Italy)`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(r.Columns, ",") != "name,inCountry" {
		t.Errorf("columns = %v", r.Columns)
	}
	want := []string{"a|true", "b|true", "c|false"}
	if got := resultRows(r); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestPaperExample45ReplaceConstant(t *testing.T) {
	e := fixture(t)
	r, err := e.Query("alice", `SELECT landfill_name
FROM elem_contained
WHERE ${elem_name = HazardousWaste:cond1}
ENRICH
REPLACECONSTANT(cond1, HazardousWaste, dangerQuery)`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(r.Columns, ",") != "landfill_name" {
		t.Errorf("columns = %v", r.Columns)
	}
	// Rows whose element is in the dangerQuery answer set {Mercury, Lead,
	// Asbestos}: (Mercury,a), (Lead,a), (Mercury,b), (Lead,c).
	want := []string{"a", "a", "b", "c"}
	if got := resultRows(r); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestReplaceConstantViaPlainProperty(t *testing.T) {
	// Without a stored query, the property's triples provide the values:
	// objects of (OreOfInterest, contains, ?o).
	e := fixture(t)
	if _, err := e.Platform.Insert("alice", rdf.Triple{S: smg("OreOfInterest"), P: smg("contains"), O: smg("Gold")}); err != nil {
		t.Fatal(err)
	}
	r, err := e.Query("alice", `SELECT landfill_name
FROM elem_contained
WHERE ${elem_name = OreOfInterest:c1}
ENRICH
REPLACECONSTANT(c1, OreOfInterest, contains)`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"b"} // only Gold in landfill b
	if got := resultRows(r); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestPaperExample46ReplaceVariable(t *testing.T) {
	e := fixture(t)
	// Paper Example 4.6 verbatim (modulo the obvious alias typos in the
	// paper text: Elecon1 → Elecond1).
	r, err := e.Query("alice", `SELECT Elecond1.landfill_name AS l_name1,
 Elecond2.landfill_name AS l_name2,
 Elecond1.elem_name
FROM elem_contained AS Elecond1,
 elem_contained AS Elecond2
WHERE ${ Elecond1.elem_name <> Elecond2.elem_name:cond1} AND
 Elecond1.elem_name = Elecond2.elem_name
ENRICH
REPLACEVARIABLE(cond1, Elecond2.elem_name, oreAssemblage)`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(r.Columns, ",") != "l_name1,l_name2,elem_name" {
		t.Errorf("columns = %v", r.Columns)
	}
	// Join on e1 = e2, then the tagged condition holds iff some
	// oreAssemblage(e2) differs from e1 — true for shared elements with a
	// non-self assemblage: Mercury (a,b pairs) and Lead (a,c pairs).
	want := []string{
		"a|a|Lead", "a|a|Mercury", "a|a|Zinc", // wait: Zinc has no assemblage
	}
	_ = want
	got := resultRows(r)
	// Mercury pairs: (a,a),(a,b),(b,a),(b,b); Lead pairs: (a,a),(a,c),(c,a),(c,c);
	// Zinc and Gold have no oreAssemblage entries → filtered out.
	expect := []string{
		"a|a|Lead", "a|a|Mercury", "a|b|Mercury", "a|c|Lead",
		"b|a|Mercury", "b|b|Mercury", "c|a|Lead", "c|c|Lead",
	}
	if strings.Join(got, " ") != strings.Join(expect, " ") {
		t.Errorf("got  %v\nwant %v", got, expect)
	}
}

func TestReplaceVariableSimple(t *testing.T) {
	e := fixture(t)
	// Which landfills contain an element whose assemblage includes Lead?
	r, err := e.Query("alice", `SELECT landfill_name
FROM elem_contained
WHERE ${elem_name = 'Lead':c1}
ENRICH
REPLACEVARIABLE(c1, elem_name, oreAssemblage)`)
	if err != nil {
		t.Fatal(err)
	}
	// oreAssemblage(Mercury) = {Lead} matches; Lead's own assemblage is
	// {Zinc}, which does not.
	want := []string{"a", "b"}
	if got := resultRows(r); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("got %v, want %v", got, want)
	}
}

// REPLACEVARIABLE joins a column's values with the ontology through the
// resource mapping, as the schema enrichments do: an INT column's 5 is the
// subject onto#5, whatever type the value had in the databank.
func TestReplaceVariableNonStringColumn(t *testing.T) {
	db := engine.Open()
	if _, err := db.ExecScript(`
		CREATE TABLE lot (id INT);
		INSERT INTO lot VALUES (5), (7), (9);
	`); err != nil {
		t.Fatal(err)
	}
	p := kb.NewPlatform()
	if err := p.RegisterUser("alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Insert("alice", rdf.Triple{S: smg("5"), P: smg("sameBatch"), O: rdf.NewTypedLiteral("7", rdf.XSDInteger)}); err != nil {
		t.Fatal(err)
	}
	e := New(db, p, nil)

	r, err := e.Query("alice", `SELECT id FROM lot ENRICH SCHEMAEXTENSION(id, sameBatch)`)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(resultRows(r), " "), "5|7 7|NULL 9|NULL"; got != want {
		t.Fatalf("schema extension: got %q, want %q", got, want)
	}
	r, err = e.Query("alice", `SELECT id FROM lot WHERE ${id = 7:c1} ENRICH REPLACEVARIABLE(c1, id, sameBatch)`)
	if err != nil {
		t.Fatal(err)
	}
	if got := resultRows(r); strings.Join(got, " ") != "5" {
		t.Errorf("replace variable: got %v, want [5]", got)
	}
}

func TestPlainSQLFastPath(t *testing.T) {
	e := fixture(t)
	r, stats, err := e.QueryStats("alice", `SELECT name FROM landfill ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Errorf("rows = %d", len(r.Rows))
	}
	if stats.SPARQL != 0 || len(stats.SPARQLQueries) != 0 {
		t.Error("plain SQL must not touch the ontology")
	}
}

func TestMultipleEnrichmentsCompose(t *testing.T) {
	e := fixture(t)
	r, err := e.Query("alice", `SELECT elem_name, landfill_name
FROM elem_contained
WHERE landfill_name = 'a'
ENRICH
SCHEMAEXTENSION(elem_name, dangerLevel)
BOOLSCHEMAEXTENSION(elem_name, isA, HazardousWaste)`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(r.Columns, ",") != "elem_name,landfill_name,dangerLevel,isA" {
		t.Errorf("columns = %v", r.Columns)
	}
	want := []string{"Lead|a|high|true", "Mercury|a|high|true", "Zinc|a|low|false"}
	if got := resultRows(r); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestWhereAndSchemaEnrichmentsTogether(t *testing.T) {
	e := fixture(t)
	r, err := e.Query("alice", `SELECT elem_name, landfill_name
FROM elem_contained
WHERE ${elem_name = HazardousWaste:cond1}
ENRICH
REPLACECONSTANT(cond1, HazardousWaste, dangerQuery)
SCHEMAEXTENSION(elem_name, dangerLevel)`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Lead|a|high", "Lead|c|high", "Mercury|a|high", "Mercury|b|high"}
	if got := resultRows(r); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestMissingPropertyYieldsNull(t *testing.T) {
	e := fixture(t)
	r, err := e.Query("alice", `SELECT elem_name FROM elem_contained WHERE landfill_name = 'b'
ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)`)
	if err != nil {
		t.Fatal(err)
	}
	// Gold has no dangerLevel → NULL.
	want := []string{"Gold|NULL", "Mercury|high"}
	if got := resultRows(r); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestMultiValuedPropertyFansOut(t *testing.T) {
	e := fixture(t)
	if _, err := e.Platform.Insert("alice", rdf.Triple{S: smg("Mercury"), P: smg("dangerLevel"), O: lit("extreme")}); err != nil {
		t.Fatal(err)
	}
	r, err := e.Query("alice", `SELECT elem_name FROM elem_contained WHERE landfill_name = 'b'
ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)`)
	if err != nil {
		t.Fatal(err)
	}
	got := resultRows(r)
	if len(got) != 3 { // Gold|NULL + Mercury×2
		t.Errorf("multi-valued property should fan out: %v", got)
	}
}

func TestContextDependentAnswers(t *testing.T) {
	// The paper's central claim: two users with different contexts get
	// different answers from the same SESQL query.
	e := fixture(t)
	if err := e.Platform.RegisterUser("bob"); err != nil {
		t.Fatal(err)
	}
	// Bob believes only Zinc is hazardous.
	if _, err := e.Platform.Insert("bob", rdf.Triple{S: smg("Zinc"), P: smg("isA"), O: smg("HazardousWaste")}); err != nil {
		t.Fatal(err)
	}
	q := `SELECT elem_name FROM elem_contained WHERE landfill_name = 'a'
ENRICH BOOLSCHEMAEXTENSION(elem_name, isA, HazardousWaste)`

	ra, err := e.Query("alice", q)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := e.Query("bob", q)
	if err != nil {
		t.Fatal(err)
	}
	ga, gb := resultRows(ra), resultRows(rb)
	if strings.Join(ga, " ") == strings.Join(gb, " ") {
		t.Errorf("contexts must differentiate answers: alice=%v bob=%v", ga, gb)
	}
	if strings.Join(gb, " ") != "Lead|false Mercury|false Zinc|true" {
		t.Errorf("bob's context wrong: %v", gb)
	}
}

func TestImportedKnowledgeChangesAnswers(t *testing.T) {
	e := fixture(t)
	if err := e.Platform.RegisterUser("carol"); err != nil {
		t.Fatal(err)
	}
	q := `SELECT name, city FROM landfill ENRICH SCHEMAREPLACEMENT(city, inCountry)`
	r0, err := e.Query("carol", q)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r0.Rows {
		if !row[1].IsNull() {
			t.Fatalf("carol has no context; got %v", resultRows(r0))
		}
	}
	// Carol imports alice's geography statements.
	if _, err := e.Platform.ImportFrom("carol", "alice", func(st *kb.Statement) bool {
		return st.Triple.P == smg("inCountry")
	}); err != nil {
		t.Fatal(err)
	}
	r1, err := e.Query("carol", q)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a|Italy", "b|Italy", "c|France"}
	if got := resultRows(r1); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("after import: %v", got)
	}
}

func TestStatsStages(t *testing.T) {
	e := fixture(t)
	_, stats, err := e.QueryStats("alice", `SELECT elem_name, landfill_name FROM elem_contained
WHERE landfill_name = 'a'
ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)`)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BaseRows != 3 || stats.FinalRows != 3 {
		t.Errorf("rows: base=%d final=%d", stats.BaseRows, stats.FinalRows)
	}
	if len(stats.SPARQLQueries) != 1 || !strings.Contains(stats.SPARQLQueries[0], "dangerLevel") {
		t.Errorf("SPARQL queries: %v", stats.SPARQLQueries)
	}
	// A schema-only enrichment defers nothing to the final query, so the
	// projection is answered straight from the join buffer: no final SQL.
	if stats.FinalSQLText != "" {
		t.Errorf("final SQL should be skipped for a pure projection, got %q", stats.FinalSQLText)
	}
	if stats.Total() <= 0 {
		t.Error("total time must be positive")
	}

	// A WHERE enrichment with a deferred ORDER BY/LIMIT still goes through
	// the temporary support database.
	_, stats2, err := e.QueryStats("alice", `SELECT landfill_name FROM elem_contained
WHERE ${elem_name = HazardousWaste:c1}
ORDER BY landfill_name LIMIT 2
ENRICH REPLACECONSTANT(c1, HazardousWaste, dangerQuery)`)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.FinalSQLText == "" || !strings.Contains(stats2.FinalSQLText, "sesql_result") {
		t.Errorf("deferred ORDER BY must run a final SQL, got %q", stats2.FinalSQLText)
	}
}

func TestOrderLimitWithWhereEnrichment(t *testing.T) {
	e := fixture(t)
	r, err := e.Query("alice", `SELECT landfill_name
FROM elem_contained
WHERE ${elem_name = HazardousWaste:cond1}
ENRICH
REPLACECONSTANT(cond1, HazardousWaste, dangerQuery)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Deferred ORDER BY + LIMIT are applied after enrichment filtering.
	r2, err := e.Query("alice", `SELECT landfill_name
FROM elem_contained
WHERE ${elem_name = HazardousWaste:cond1}
ORDER BY landfill_name DESC LIMIT 2
ENRICH
REPLACECONSTANT(cond1, HazardousWaste, dangerQuery)`)
	if err != nil {
		t.Fatal(err)
	}
	got := resultRows(r2)
	if strings.Join(got, " ") != "b c" {
		t.Errorf("deferred order/limit: %v", got)
	}
}

func TestUserWithoutKnowledgeGetsFalse(t *testing.T) {
	e := fixture(t)
	if err := e.Platform.RegisterUser("empty"); err != nil {
		t.Fatal(err)
	}
	r, err := e.Query("empty", `SELECT elem_name FROM elem_contained WHERE landfill_name = 'a'
ENRICH BOOLSCHEMAEXTENSION(elem_name, isA, HazardousWaste)`)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row[1].Bool() {
			t.Errorf("empty context must yield false: %v", resultRows(r))
		}
	}
}

func TestErrorCases(t *testing.T) {
	e := fixture(t)
	bad := []struct {
		user, q string
	}{
		{"ghost", `SELECT name FROM landfill`},
		{"alice", `SELECT name FROM landfill ENRICH SCHEMAEXTENSION(nope, p)`},
		{"alice", `SELECT name FROM nope ENRICH SCHEMAEXTENSION(name, p)`},
		{"alice", `SELECT DISTINCT landfill_name FROM elem_contained WHERE ${elem_name = X:c1} ENRICH REPLACECONSTANT(c1, X, dangerQuery)`},
		{"alice", `SELECT landfill_name FROM elem_contained WHERE ${elem_name = X:c1} ENRICH REPLACECONSTANT(c1, Y, dangerQuery)`},
	}
	for _, c := range bad {
		if _, err := e.Query(c.user, c.q); err == nil {
			t.Errorf("Query(%s, %q) should fail", c.user, c.q)
		}
	}
}

func TestConceptChecker(t *testing.T) {
	e := fixture(t)
	check := NewConceptChecker(e.DB, e.Mapping)
	if !check("Mercury") {
		t.Error("Mercury is in the databank")
	}
	if !check(DefaultIRIPrefix + "Torino") {
		t.Error("IRI-form concept must resolve")
	}
	if check("Unobtainium") {
		t.Error("Unobtainium is not in the databank")
	}
	// Wire into the platform: integrated annotation works end-to-end.
	e.Platform.SetConceptChecker(check)
	if _, err := e.Platform.Insert("alice",
		rdf.Triple{S: smg("Mercury"), P: smg("note"), O: lit("seen in lab")}, kb.Integrated()); err != nil {
		t.Errorf("integrated annotation of db concept failed: %v", err)
	}
	if _, err := e.Platform.Insert("alice",
		rdf.Triple{S: smg("Unobtainium"), P: smg("note"), O: lit("x")}, kb.Integrated()); err == nil {
		t.Error("integrated annotation of unknown concept must fail")
	}
}
