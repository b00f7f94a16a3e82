package core

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"crosse/internal/engine"
	"crosse/internal/kb"
	"crosse/internal/rdf"
)

func TestEnrichmentOnAggregatedQuery(t *testing.T) {
	e := fixture(t)
	// Enrich a GROUP BY result: attach country knowledge to grouped cities.
	r, err := e.Query("alice", `SELECT city, COUNT(*) AS n FROM landfill GROUP BY city
ENRICH SCHEMAEXTENSION(city, inCountry)`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(r.Columns, ",") != "city,n,inCountry" {
		t.Errorf("columns = %v", r.Columns)
	}
	want := []string{"Lyon|1|France", "Milano|1|Italy", "Torino|1|Italy"}
	if got := resultRows(r); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestEnrichmentOnStarProjection(t *testing.T) {
	e := fixture(t)
	r, err := e.Query("alice", `SELECT * FROM landfill
ENRICH BOOLSCHEMAREPLACEMENT(city, inCountry, Italy)`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(r.Columns, ",") != "name,inCountry" {
		t.Errorf("columns = %v", r.Columns)
	}
}

func TestEnrichmentAttrByAlias(t *testing.T) {
	e := fixture(t)
	r, err := e.Query("alice", `SELECT elem_name AS material, landfill_name FROM elem_contained
WHERE landfill_name = 'a'
ENRICH SCHEMAEXTENSION(material, dangerLevel)`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(r.Columns, ",") != "material,landfill_name,dangerLevel" {
		t.Errorf("columns = %v", r.Columns)
	}
	if got := resultRows(r); len(got) != 3 {
		t.Errorf("rows: %v", got)
	}
}

func TestStoredQueryWrongArity(t *testing.T) {
	e := fixture(t)
	// A stored query projecting one var cannot drive SCHEMAEXTENSION
	// (which needs subject+object pairs).
	if err := e.Platform.RegisterQuery("alice", "oneVar",
		`SELECT ?x WHERE { ?x <`+DefaultIRIPrefix+`isA> <`+DefaultIRIPrefix+`HazardousWaste> }`); err != nil {
		t.Fatal(err)
	}
	_, err := e.Query("alice", `SELECT elem_name FROM elem_contained
ENRICH SCHEMAEXTENSION(elem_name, oneVar)`)
	if err == nil || !strings.Contains(err.Error(), "subject, object") {
		t.Errorf("want arity error, got %v", err)
	}
}

func TestStoredQueryDrivesSchemaExtension(t *testing.T) {
	e := fixture(t)
	// A two-variable stored query acts as a virtual property.
	if err := e.Platform.RegisterQuery("alice", "dangerPairs",
		`SELECT ?s ?o WHERE { ?s <`+DefaultIRIPrefix+`dangerLevel> ?o }`); err != nil {
		t.Fatal(err)
	}
	r, err := e.Query("alice", `SELECT elem_name FROM elem_contained WHERE landfill_name = 'a'
ENRICH SCHEMAEXTENSION(elem_name, dangerPairs)`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Lead|high", "Mercury|high", "Zinc|low"}
	if got := resultRows(r); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestLiteralObjectConcept(t *testing.T) {
	e := fixture(t)
	// User annotated with literal objects: BOOLSCHEMAEXTENSION must match
	// them through the ConceptTerms literal fallback.
	if err := e.Platform.RegisterUser("lit"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Platform.Insert("lit", rdf.Triple{
		S: smg("Torino"), P: smg("inCountry"), O: rdf.NewLiteral("Italy"),
	}); err != nil {
		t.Fatal(err)
	}
	r, err := e.Query("lit", `SELECT name, city FROM landfill
ENRICH BOOLSCHEMAEXTENSION(city, inCountry, Italy)`)
	if err != nil {
		t.Fatal(err)
	}
	got := resultRows(r)
	if !strings.Contains(strings.Join(got, " "), "a|Torino|true") {
		t.Errorf("literal concept match: %v", got)
	}
}

func TestColumnNameCollisionSuffixed(t *testing.T) {
	e := fixture(t)
	// Enriching with a property whose name collides with a projected
	// column gets a _2 suffix.
	if _, err := e.Platform.Insert("alice", rdf.Triple{
		S: smg("Mercury"), P: smg("elem_name"), O: rdf.NewLiteral("quicksilver"),
	}); err != nil {
		t.Fatal(err)
	}
	r, err := e.Query("alice", `SELECT elem_name FROM elem_contained WHERE landfill_name = 'b'
ENRICH SCHEMAEXTENSION(elem_name, elem_name)`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(r.Columns, ",") != "elem_name,elem_name_2" {
		t.Errorf("columns = %v", r.Columns)
	}
}

func TestDoubleWhereEnrichment(t *testing.T) {
	e := fixture(t)
	// Two independently tagged conditions, each enriched.
	r, err := e.Query("alice", `SELECT elem_name, landfill_name FROM elem_contained
WHERE ${elem_name = HazardousWaste:c1} AND ${elem_name = 'Lead':c2}
ENRICH
REPLACECONSTANT(c1, HazardousWaste, dangerQuery)
REPLACEVARIABLE(c2, elem_name, oreAssemblage)`)
	if err != nil {
		t.Fatal(err)
	}
	// c1 keeps hazardous rows {Mercury, Lead}; c2 keeps rows whose
	// assemblage contains Lead {Mercury}. Intersection: Mercury rows.
	want := []string{"Mercury|a", "Mercury|b"}
	if got := resultRows(r); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestStatsAccumulateAcrossEnrichments(t *testing.T) {
	e := fixture(t)
	_, stats, err := e.QueryStats("alice", `SELECT elem_name, landfill_name FROM elem_contained
ENRICH
SCHEMAEXTENSION(elem_name, dangerLevel)
BOOLSCHEMAEXTENSION(elem_name, isA, HazardousWaste)
SCHEMAREPLACEMENT(landfill_name, inCountry)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.SPARQLQueries) != 3 {
		t.Errorf("SPARQL queries = %d, want 3", len(stats.SPARQLQueries))
	}
}

func TestConceptCheckerWiredPlatform(t *testing.T) {
	e := fixture(t)
	e.Platform.SetConceptChecker(NewConceptChecker(e.DB, e.Mapping))
	// Integrated annotation via the platform uses the databank check.
	if _, err := e.Platform.Insert("alice",
		rdf.Triple{S: smg("Torino"), P: smg("note"), O: rdf.NewLiteral("visited")},
		kb.Integrated()); err != nil {
		t.Errorf("Torino is in the databank: %v", err)
	}
}

func TestXMLMappingDrivenPipeline(t *testing.T) {
	// A mapping that routes elem_name through a custom IRI prefix must
	// still join with KB facts minted under that prefix.
	mappingXML := `<resourceMapping>
  <default iriPrefix="` + DefaultIRIPrefix + `"/>
  <map table="elem_contained" column="elem_name" iriPrefix="http://elements.eu/"/>
</resourceMapping>`
	m, err := LoadMapping(strings.NewReader(mappingXML))
	if err != nil {
		t.Fatal(err)
	}
	base := fixture(t)
	e := New(base.DB, base.Platform, m)
	if err := e.Platform.RegisterUser("mapped"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Platform.Insert("mapped", rdf.Triple{
		S: rdf.NewIRI("http://elements.eu/Mercury"),
		P: rdf.NewIRI(DefaultIRIPrefix + "dangerLevel"),
		O: rdf.NewLiteral("extreme"),
	}); err != nil {
		t.Fatal(err)
	}
	r, err := e.Query("mapped", `SELECT elem_name FROM elem_contained WHERE landfill_name = 'b'
ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)`)
	if err != nil {
		t.Fatal(err)
	}
	got := resultRows(r)
	if !strings.Contains(strings.Join(got, " "), "Mercury|extreme") {
		t.Errorf("custom-prefix join: %v", got)
	}
}

// A literal-mapped INTEGER column joins by value, not by join-key bucket:
// 2^53 and 2^53+1 widen to the same float64, so they share a bucket, but
// only the row whose value equals the subject takes its grade. A DOUBLE
// subject equal to an integer joins it too, as Compare says.
func TestEnrichJoinReverifiesIntegerKeys(t *testing.T) {
	m, err := LoadMapping(strings.NewReader(`<resourceMapping>
  <map table="lot" column="id" literal="true"/>
  <map table="pair" column="id" literal="true"/>
</resourceMapping>`))
	if err != nil {
		t.Fatal(err)
	}
	db := engine.Open()
	if _, err := db.ExecScript(`CREATE TABLE lot (id INT);
INSERT INTO lot VALUES (9007199254740992);
INSERT INTO lot VALUES (9007199254740993);
INSERT INTO lot VALUES (7);`); err != nil {
		t.Fatal(err)
	}
	p := kb.NewPlatform()
	if err := p.RegisterUser("u"); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct{ s, o rdf.Term }{
		{rdf.NewTypedLiteral("9007199254740992", rdf.XSDInteger), lit("A")},
		{rdf.NewTypedLiteral("7.0", rdf.XSDDouble), lit("B")},
	} {
		if _, err := p.Insert("u", rdf.Triple{S: f.s, P: smg("grade"), O: f.o}); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"7|B", "9007199254740992|A", "9007199254740993|NULL"}
	for _, par := range []int{1, 2, 4} {
		e := New(db, p, m)
		e.SetExecOptions(ExecOptions{Parallelism: par})
		r, err := e.Query("u", `SELECT id FROM lot ENRICH SCHEMAEXTENSION(id, grade)`)
		if err != nil {
			t.Fatal(err)
		}
		got := resultRows(r)
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Parallelism %d: %v, want %v", par, got, want)
		}
	}

	// Compare-equal subjects of different types fan a row out subject by
	// subject, in order of each subject's first solution, and each
	// subject's objects in solution order: here the stored query's
	// ORDER BY ?o alternates the subjects (C, D, E, F), yet the INTEGER
	// subject's C, E come before the DOUBLE subject's D, F.
	if _, err := db.ExecScript(`CREATE TABLE pair (id INT);
INSERT INTO pair VALUES (5);`); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct{ s, o rdf.Term }{
		{rdf.NewTypedLiteral("5", rdf.XSDInteger), lit("C")},
		{rdf.NewTypedLiteral("5.0", rdf.XSDDouble), lit("D")},
		{rdf.NewTypedLiteral("5", rdf.XSDInteger), lit("E")},
		{rdf.NewTypedLiteral("5.0", rdf.XSDDouble), lit("F")},
	} {
		if _, err := p.Insert("u", rdf.Triple{S: f.s, P: smg("tag"), O: f.o}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.RegisterQuery("u", "tags", `SELECT ?s ?o WHERE { ?s <`+smg("tag").Value+`> ?o } ORDER BY ?o`); err != nil {
		t.Fatal(err)
	}
	want = []string{"5|C", "5|E", "5|D", "5|F"}
	for _, par := range []int{1, 2, 4} {
		e := New(db, p, m)
		e.SetExecOptions(ExecOptions{Parallelism: par})
		r, err := e.Query("u", `SELECT id FROM pair ENRICH SCHEMAEXTENSION(id, tags)`)
		if err != nil {
			t.Fatal(err)
		}
		var got []string // unsorted, unlike resultRows
		for _, row := range r.Rows {
			got = append(got, row[0].String()+"|"+row[1].String())
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Parallelism %d: fan-out %v, want %v", par, got, want)
		}
	}
}

// A LIKE pattern computed per row, here (%a)×12%b over a 40-byte name that
// holds no b, must match in linear time, not by backtracking over every
// placement of the a's.
func TestDynamicLikePatternLinear(t *testing.T) {
	e := fixture(t)
	if _, err := e.DB.Exec(`INSERT INTO landfill VALUES ('` + strings.Repeat("a", 40) + `', 'Graz')`); err != nil {
		t.Fatal(err)
	}
	query := `SELECT name FROM landfill WHERE name LIKE '` + strings.Repeat("%a", 12) + `%' || 'b'`
	done := make(chan error, 1)
	go func() {
		r, err := e.Query("alice", query)
		if err == nil && len(r.Rows) != 0 {
			t.Errorf("rows %v, want none", r.Rows)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a 12-run dynamic LIKE pattern over 40 bytes took over 2 s")
	}
}
