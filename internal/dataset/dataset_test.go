package dataset

import (
	"strings"
	"testing"

	"crosse/internal/engine"
	"crosse/internal/kb"
	"crosse/internal/rdf"
)

func TestPopulateShapes(t *testing.T) {
	db := engine.Open()
	cfg := DefaultConfig()
	if err := Populate(db, cfg); err != nil {
		t.Fatal(err)
	}
	n, err := CountRows(db, "landfill")
	if err != nil || n != cfg.Landfills {
		t.Errorf("landfills = %d (%v)", n, err)
	}
	n, _ = CountRows(db, "lab")
	if n != cfg.Labs {
		t.Errorf("labs = %d", n)
	}
	n, _ = CountRows(db, "analysis")
	if n != cfg.Analyses {
		t.Errorf("analyses = %d", n)
	}
	n, _ = CountRows(db, "elem_contained")
	// Duplicate draws are skipped, so count is bounded by L*PerL and must
	// be a solid fraction of it.
	if n > cfg.Landfills*cfg.PerLCount || n < cfg.Landfills*cfg.PerLCount/2 {
		t.Errorf("elem_contained = %d, expected near %d", n, cfg.Landfills*cfg.PerLCount)
	}
	// Referential integrity: every contained element's landfill exists.
	r, err := db.Query(`SELECT COUNT(*) FROM elem_contained e LEFT JOIN landfill l
		ON e.landfill_name = l.name WHERE l.name IS NULL`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].Int() != 0 {
		t.Error("dangling landfill references")
	}
}

func TestPopulateDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	db1, db2 := engine.Open(), engine.Open()
	if err := Populate(db1, cfg); err != nil {
		t.Fatal(err)
	}
	if err := Populate(db2, cfg); err != nil {
		t.Fatal(err)
	}
	q := `SELECT elem_name, landfill_name, amount FROM elem_contained ORDER BY landfill_name, elem_name LIMIT 50`
	r1, _ := db1.Query(q)
	r2, _ := db2.Query(q)
	if len(r1.Rows) != len(r2.Rows) {
		t.Fatal("row counts differ")
	}
	for i := range r1.Rows {
		for j := range r1.Rows[i] {
			if r1.Rows[i][j].String() != r2.Rows[i][j].String() {
				t.Fatalf("row %d differs: %v vs %v", i, r1.Rows[i], r2.Rows[i])
			}
		}
	}
}

// A config with nothing to draw from is an error before any table exists,
// not a panic in the generator.
func TestPopulateRejectsEmptyConfig(t *testing.T) {
	for _, set := range []func(*Config){
		func(c *Config) { c.Landfills = 0 },
		func(c *Config) { c.Landfills = -5 },
		func(c *Config) { c.Cities = 0 },
		func(c *Config) { c.Labs = 0 },
		func(c *Config) { c.Elements = 0 },
		func(c *Config) { c.Analyses = -1 },
	} {
		cfg := DefaultConfig()
		set(&cfg)
		db := engine.Open()
		if err := Populate(db, cfg); err == nil || !strings.HasPrefix(err.Error(), "dataset: ") {
			t.Errorf("Populate(%+v) = %v, want a dataset error", cfg, err)
		}
		if names := db.Catalog().Names(); len(names) != 0 {
			t.Errorf("Populate(%+v) created %v", cfg, names)
		}
	}
	cfg := DefaultConfig()
	cfg.Landfills, cfg.PerLCount, cfg.Analyses = 1, 0, 0
	if err := Populate(engine.Open(), cfg); err != nil {
		t.Errorf("smallest config: %v", err)
	}
}

func TestSkewIsSkewed(t *testing.T) {
	db := engine.Open()
	if err := Populate(db, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	r, err := db.Query(`SELECT elem_name, COUNT(*) AS n FROM elem_contained GROUP BY elem_name ORDER BY n DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 10 {
		t.Fatalf("too few distinct elements: %d", len(r.Rows))
	}
	top := r.Rows[0][1].Int()
	bottom := r.Rows[len(r.Rows)-1][1].Int()
	if top < 3*bottom {
		t.Errorf("distribution not skewed: top=%d bottom=%d", top, bottom)
	}
}

func TestPopulateOntology(t *testing.T) {
	p := kb.NewPlatform()
	if err := p.RegisterUser("u"); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultOntology()
	cfg.ExtraTriples = 100
	n, err := PopulateOntology(p, "u", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n != p.ViewSize("u") {
		t.Errorf("inserted %d but view has %d", n, p.ViewSize("u"))
	}
	g, _ := p.View("u")
	hazardous := rdf.Count(g, rdf.Pattern{P: IRI("isA"), O: IRI("HazardousWaste")})
	want := int(float64(cfg.Elements) * cfg.HazardFrac)
	if hazardous != want {
		t.Errorf("hazardous = %d, want %d", hazardous, want)
	}
	if cities := rdf.Count(g, rdf.Pattern{P: IRI("inCountry")}); cities != cfg.Cities {
		t.Errorf("inCountry facts = %d", cities)
	}
	if pad := rdf.Count(g, rdf.Pattern{P: IRI("pad_p0")}); pad == 0 {
		t.Error("padding triples missing")
	}
}

func TestRegisterDangerQuery(t *testing.T) {
	p := kb.NewPlatform()
	if err := RegisterDangerQuery(p); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.LookupQuery("anyone", "dangerQuery"); !ok {
		t.Error("dangerQuery not registered in shared namespace")
	}
}

func TestNameHelpers(t *testing.T) {
	if ElementName(3) != "element_003" || LandfillName(12) != "landfill_0012" {
		t.Error("name formats changed — benchmark/workload.go's query texts depend on them")
	}
	if CountryName(0) != CountryName(8) {
		t.Error("cities 0 and 8 share a country by construction")
	}
}
