package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"crosse/internal/dataset"
	"crosse/internal/engine"
	"crosse/internal/kb"
	"crosse/internal/rdf"
)

// datasetEnricher is an enricher over the synthetic databank and ontology.
func datasetEnricher(t *testing.T, landfills int) *Enricher {
	t.Helper()
	db := engine.Open()
	cfg := dataset.DefaultConfig()
	cfg.Landfills = landfills
	if err := dataset.Populate(db, cfg); err != nil {
		t.Fatal(err)
	}
	p := kb.NewPlatform()
	if err := p.RegisterUser("alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := dataset.PopulateOntology(p, "alice", dataset.DefaultOntology()); err != nil {
		t.Fatal(err)
	}
	if err := dataset.RegisterDangerQuery(p); err != nil {
		t.Fatal(err)
	}
	return New(db, p, nil)
}

// shapedQuery draws one text of the six Sec. IV strategies, or of a plain
// query, with random literals of every slot type; ordered reports that its
// ORDER BY is a total order.
func shapedQuery(rng *rand.Rand, landfills int) (text string, ordered bool) {
	lf := dataset.LandfillName(rng.Intn(landfills))
	ct := dataset.CityName(rng.Intn(12))
	el := dataset.ElementName(rng.Intn(30))
	n := rng.Intn(100)
	switch rng.Intn(9) {
	case 0:
		return fmt.Sprintf("SELECT elem_name, landfill_name FROM elem_contained WHERE landfill_name = '%s' AND amount >= %d ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)", lf, n), false
	case 1:
		return fmt.Sprintf("SELECT name, city FROM landfill WHERE city = '%s' AND area >= %d.5 ORDER BY name ENRICH SCHEMAREPLACEMENT(city, inCountry)", ct, 50+n*5), true
	case 2:
		return fmt.Sprintf("SELECT elem_name, landfill_name FROM elem_contained WHERE landfill_name IN ('%s', '%s') AND amount BETWEEN %d AND %d.25 ENRICH BOOLSCHEMAEXTENSION(elem_name, isA, HazardousWaste)", lf, dataset.LandfillName(rng.Intn(landfills)), n/2, n), false
	case 3:
		return fmt.Sprintf("SELECT name, city FROM landfill WHERE city = '%s' OR area < %d ENRICH BOOLSCHEMAREPLACEMENT(city, inCountry, country_0%d)", ct, 60+n, rng.Intn(8)), false
	case 4:
		return fmt.Sprintf("SELECT landfill_name, amount FROM elem_contained WHERE landfill_name = '%s' AND amount >= %d AND ${elem_name = HazardousWaste:c1} ENRICH REPLACECONSTANT(c1, HazardousWaste, dangerQuery)", lf, n), false
	case 5:
		return fmt.Sprintf("SELECT landfill_name, elem_name FROM elem_contained WHERE landfill_name = '%s' AND amount >= %d AND ${elem_name = '%s':c1} ENRICH REPLACEVARIABLE(c1, elem_name, oreAssemblage)", lf, n, el), false
	case 6:
		return fmt.Sprintf("SELECT e.elem_name, l.city FROM elem_contained e JOIN landfill l ON l.name = e.landfill_name AND l.area > %d WHERE e.amount < %d.5 ENRICH SCHEMAEXTENSION(e.elem_name, dangerLevel)", 50+n*4, n), false
	case 7:
		return fmt.Sprintf("SELECT city, COUNT(*) FROM landfill WHERE area >= %d GROUP BY city HAVING COUNT(*) > %d ORDER BY city", 50+n*3, rng.Intn(3)), true
	default:
		return fmt.Sprintf("SELECT name FROM landfill WHERE name = '%s' AND UPPER(city) <> '%s'", lf, strings.ToUpper(ct)), false
	}
}

// TestShapeBindMatchesInlinedText is the template property: a text answered
// through its shape — one plan per shape, compiled before these literals
// were seen, with the literals bound — returns the rows of the same text
// compiled with its literals inlined, in the same order where ORDER BY is
// total, at Parallelism 1, 2 and 4. A comment makes a text its own shape
// (sesql.Shape declines it), so the commented twin is the inlined
// reference.
func TestShapeBindMatchesInlinedText(t *testing.T) {
	const landfills = 60
	base := datasetEnricher(t, landfills)
	rng := rand.New(rand.NewSource(29))
	for _, par := range []int{1, 2, 4} {
		e := New(base.DB, base.Platform, nil)
		e.SetExecOptions(ExecOptions{Parallelism: par})
		for i := 0; i < 150; i++ {
			text, ordered := shapedQuery(rng, landfills)
			inline := strings.Replace(text, "SELECT", "SELECT /* inline */", 1)
			got, gerr := e.Query("alice", text)
			want, werr := e.Query("alice", inline)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("P%d %q: shape error %v, inlined error %v", par, text, gerr, werr)
			}
			if werr != nil {
				continue
			}
			if strings.Join(got.Columns, ",") != strings.Join(want.Columns, ",") {
				t.Fatalf("P%d %q: columns %v, want %v", par, text, got.Columns, want.Columns)
			}
			g, w := orderedRows(got), orderedRows(want)
			if !ordered {
				g, w = strings.Join(resultRows(got), " "), strings.Join(resultRows(want), " ")
			}
			if g != w {
				t.Fatalf("P%d %q:\nshape   %v\ninlined %v", par, text, g, w)
			}
		}
		// Nine strategies, one shape each — eight more for the country in
		// case 3's ENRICH clause, which stays in the key.
		if n := e.cache.shapes.Len() - 150; n > 16 {
			t.Errorf("P%d: %d shapes for 150 texts of nine strategies", par, n)
		}
	}
}

// After DDL a compiled template is never served: the same shape over a
// table dropped and recreated with another layout, another type for the
// slotted column and a new index answers from the new table.
func TestShapeTemplateNeverStaleAfterDDL(t *testing.T) {
	e := fixture(t)
	if _, err := e.DB.ExecScript(`
		CREATE TABLE q (id INT, s TEXT);
		INSERT INTO q VALUES (1, 'a'), (2, 'b');
	`); err != nil {
		t.Fatal(err)
	}
	query := func(text string) string {
		t.Helper()
		r, err := e.Query("alice", text)
		if err != nil {
			t.Fatal(err)
		}
		return orderedRows(r)
	}
	if got := query(`SELECT id FROM q WHERE s = 'b'`); got != "2" {
		t.Fatalf("before DDL: %q", got)
	}
	if _, err := e.DB.ExecScript(`
		DROP TABLE q;
		CREATE TABLE q (s INT, id TEXT);
		CREATE INDEX idx_q ON q (s);
		INSERT INTO q VALUES (7, 'x'), (8, 'y');
	`); err != nil {
		t.Fatal(err)
	}
	// Same shape as above (a string slot), now against an INTEGER column:
	// the stale template would seek with the old slot offsets.
	if r, err := e.Query("alice", `SELECT id FROM q WHERE s = 'c'`); err == nil && len(r.Rows) != 0 {
		t.Errorf("string literal against the new INTEGER column matched %v", orderedRows(r))
	}
	if got := query(`SELECT id FROM q WHERE s = 8`); got != "y" {
		t.Errorf("after DDL: %q, want y", got)
	}
}

// A REPLACECONSTANT constant written as a literal is matched by its value,
// which a template cannot know: the shape falls back to compiling each of
// its texts as its own shape, and answers as before.
func TestShapeLiteralConstantFallsBack(t *testing.T) {
	e := fixture(t)
	const text = `SELECT landfill_name FROM elem_contained WHERE ${elem_name = 'HazardousWaste':c1} ENRICH REPLACECONSTANT(c1, 'HazardousWaste', dangerQuery)`
	for i := 0; i < 2; i++ {
		r, err := e.Query("alice", text)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(resultRows(r), " "); got != "a a b c" {
			t.Errorf("round %d: got %q, want a a b c", i, got)
		}
	}
	if _, err := e.Query("alice", strings.Replace(text, `= 'HazardousWaste'`, `= 'Other'`, 1)); err == nil {
		t.Error("a constant absent from its condition must still fail")
	}
}

// TestNumericJoinKeysFromOneMillion pins the join key's canonical numerics: a
// DOUBLE column mapped to literals must join with an ontology subject bound
// as an xsd:integer from 1e6 up, where the two used to render differently
// (2.5e+06 vs 2500000).
func TestNumericJoinKeysFromOneMillion(t *testing.T) {
	db := engine.Open()
	if _, err := db.ExecScript(`
		CREATE TABLE site (capacity DOUBLE);
		INSERT INTO site VALUES (2500000), (7);
	`); err != nil {
		t.Fatal(err)
	}
	m, err := LoadMapping(strings.NewReader(`<resourceMapping>
  <map table="site" column="capacity" literal="true"/>
</resourceMapping>`))
	if err != nil {
		t.Fatal(err)
	}
	p := kb.NewPlatform()
	if err := p.RegisterUser("alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Insert("alice", rdf.Triple{S: smg("plantA"), P: smg("capacity"), O: rdf.NewTypedLiteral("2500000", rdf.XSDInteger)}); err != nil {
		t.Fatal(err)
	}
	// The stored query's subject column binds the integer literal.
	if err := p.RegisterQuery("", "plantCapacity", `SELECT ?c ?plant WHERE { ?plant <`+DefaultIRIPrefix+`capacity> ?c }`); err != nil {
		t.Fatal(err)
	}
	e := New(db, p, m)
	r, err := e.Query("alice", `SELECT capacity FROM site ENRICH SCHEMAEXTENSION(capacity, plantCapacity)`)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(resultRows(r), " "), "2.5e+06|plantA 7|NULL"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}
