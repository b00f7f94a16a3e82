// Package dataset generates the synthetic SmartGround databank and
// contextual ontologies that bench_test.go and the benchmark/ harness run
// on. The real SmartGround data (EU landfill registries) is not public;
// the generator reproduces the Fig. 3 schema — landfills, waste items /
// elements contained in them, analyses signed by labs — with controllable
// cardinalities and a skewed element co-occurrence structure so
// `oreAssemblage`-style knowledge has realistic fan-out. All generation
// is deterministic given the seed.
package dataset

import (
	"fmt"
	"math/rand"

	"crosse/internal/engine"
	"crosse/internal/kb"
	"crosse/internal/rdf"
)

// Config controls the synthetic databank size and shape.
type Config struct {
	Seed       int64
	Landfills  int
	Elements   int // distinct element/material kinds
	PerLCount  int // elements contained per landfill
	Labs       int
	Analyses   int // analysis reports
	Cities     int
	HazardFrac float64 // fraction of elements considered hazardous in the ontology
}

// DefaultConfig is a laptop-scale databank comparable to a national
// registry slice.
func DefaultConfig() Config {
	return Config{
		Seed:       1,
		Landfills:  200,
		Elements:   60,
		PerLCount:  12,
		Labs:       15,
		Analyses:   400,
		Cities:     40,
		HazardFrac: 0.3,
	}
}

// ElementName returns the i-th synthetic element name.
func ElementName(i int) string { return fmt.Sprintf("element_%03d", i) }

// LandfillName returns the i-th synthetic landfill name.
func LandfillName(i int) string { return fmt.Sprintf("landfill_%04d", i) }

// CityName returns the i-th synthetic city name.
func CityName(i int) string { return fmt.Sprintf("city_%03d", i) }

// LabName returns the i-th synthetic laboratory name.
func LabName(i int) string { return fmt.Sprintf("lab_%02d", i) }

// CountryName returns the country a city index belongs to.
func CountryName(city int) string { return fmt.Sprintf("country_%02d", city%8) }

// Schema is the Fig. 3 databank DDL.
const Schema = `
CREATE TABLE landfill (
	name TEXT PRIMARY KEY,
	city TEXT NOT NULL,
	area DOUBLE,
	active BOOLEAN
);
CREATE TABLE elem_contained (
	elem_name TEXT NOT NULL,
	landfill_name TEXT NOT NULL,
	amount DOUBLE
);
CREATE TABLE lab (
	name TEXT PRIMARY KEY,
	city TEXT
);
CREATE TABLE analysis (
	id INT PRIMARY KEY,
	landfill_name TEXT NOT NULL,
	lab_name TEXT NOT NULL,
	elem_name TEXT NOT NULL,
	purity DOUBLE,
	signed_by TEXT
);
CREATE INDEX idx_elem_landfill ON elem_contained (landfill_name);
CREATE INDEX idx_elem_name ON elem_contained (elem_name);
CREATE INDEX idx_analysis_landfill ON analysis (landfill_name);
`

// Populate creates and fills the databank tables in db. A config it cannot
// generate from (no landfills, say) is an error, and db is left untouched.
func Populate(db *engine.DB, cfg Config) error {
	if cfg.Landfills < 1 || cfg.Elements < 1 || cfg.Labs < 1 || cfg.Cities < 1 || cfg.PerLCount < 0 || cfg.Analyses < 0 {
		return fmt.Errorf("dataset: Landfills, Elements, Labs and Cities must be at least 1, PerLCount and Analyses at least 0; got %+v", cfg)
	}
	if _, err := db.ExecScript(Schema); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	lf, err := db.Catalog().Table("landfill")
	if err != nil {
		return err
	}
	for i := 0; i < cfg.Landfills; i++ {
		row, _ := engine.Row(
			LandfillName(i),
			CityName(rng.Intn(cfg.Cities)),
			50+rng.Float64()*500,
			rng.Float64() < 0.8,
		)
		if err := lf.Insert(row); err != nil {
			return err
		}
	}

	ec, err := db.Catalog().Table("elem_contained")
	if err != nil {
		return err
	}
	for i := 0; i < cfg.Landfills; i++ {
		// Zipf-ish skew: low-index elements are much more common, which
		// gives co-occurrence structure for assemblage knowledge.
		seen := map[int]bool{}
		for k := 0; k < cfg.PerLCount; k++ {
			e := skewedIndex(rng, cfg.Elements)
			if seen[e] {
				continue
			}
			seen[e] = true
			row, _ := engine.Row(ElementName(e), LandfillName(i), rng.Float64()*100)
			if err := ec.Insert(row); err != nil {
				return err
			}
		}
	}

	labT, err := db.Catalog().Table("lab")
	if err != nil {
		return err
	}
	for i := 0; i < cfg.Labs; i++ {
		row, _ := engine.Row(LabName(i), CityName(rng.Intn(cfg.Cities)))
		if err := labT.Insert(row); err != nil {
			return err
		}
	}

	an, err := db.Catalog().Table("analysis")
	if err != nil {
		return err
	}
	for i := 0; i < cfg.Analyses; i++ {
		row, _ := engine.Row(
			i,
			LandfillName(rng.Intn(cfg.Landfills)),
			LabName(rng.Intn(cfg.Labs)),
			ElementName(skewedIndex(rng, cfg.Elements)),
			0.5+rng.Float64()*0.5,
			fmt.Sprintf("analyst_%02d", rng.Intn(30)),
		)
		if err := an.Insert(row); err != nil {
			return err
		}
	}
	return nil
}

// skewedIndex draws an element index with a harmonic-like skew.
func skewedIndex(rng *rand.Rand, n int) int {
	// Squaring a uniform variate biases toward 0 without the cost of a
	// true Zipf sampler; the shape (few hot, long tail) is what matters.
	u := rng.Float64()
	return int(u * u * float64(n))
}

// OntologyConfig controls the synthetic contextual knowledge.
type OntologyConfig struct {
	Seed       int64
	Elements   int
	Cities     int
	HazardFrac float64
	// ExtraTriples pads the KB with unrelated facts so a benchmark can
	// scale KB size independently of useful knowledge.
	ExtraTriples int
	// AssemblageDegree is how many other elements each element co-occurs
	// with in the user's domain knowledge.
	AssemblageDegree int
}

// DefaultOntology matches DefaultConfig.
func DefaultOntology() OntologyConfig {
	return OntologyConfig{
		Seed:             2,
		Elements:         60,
		Cities:           40,
		HazardFrac:       0.3,
		ExtraTriples:     0,
		AssemblageDegree: 3,
	}
}

// IRI mints a term in the experiment ontology namespace.
func IRI(local string) rdf.Term {
	return rdf.NewIRI("http://smartground.eu/onto#" + local)
}

// PopulateOntology inserts the user's contextual knowledge into the
// platform: dangerLevel and isA/HazardousWaste facts for the hazardous
// slice of elements, inCountry facts for every city, oreAssemblage
// co-occurrence facts, and optional padding triples. It returns the number
// of statements inserted.
func PopulateOntology(p *kb.Platform, user string, cfg OntologyConfig) (int, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := 0
	seen := map[rdf.Triple]struct{}{}
	ins := func(t rdf.Triple) error {
		if _, dup := seen[t]; dup {
			return nil
		}
		seen[t] = struct{}{}
		_, err := p.Insert(user, t)
		if err == nil {
			n++
		}
		return err
	}

	hazardous := int(float64(cfg.Elements) * cfg.HazardFrac)
	for i := 0; i < cfg.Elements; i++ {
		name := ElementName(i)
		if i < hazardous {
			if err := ins(rdf.Triple{S: IRI(name), P: IRI("isA"), O: IRI("HazardousWaste")}); err != nil {
				return n, err
			}
			if err := ins(rdf.Triple{S: IRI(name), P: IRI("dangerLevel"), O: rdf.NewLiteral("high")}); err != nil {
				return n, err
			}
		} else if rng.Float64() < 0.5 {
			if err := ins(rdf.Triple{S: IRI(name), P: IRI("dangerLevel"), O: rdf.NewLiteral("low")}); err != nil {
				return n, err
			}
		}
		for d := 0; d < cfg.AssemblageDegree; d++ {
			other := skewedIndex(rng, cfg.Elements)
			if other == i {
				continue
			}
			if err := ins(rdf.Triple{S: IRI(name), P: IRI("oreAssemblage"), O: IRI(ElementName(other))}); err != nil {
				return n, err
			}
		}
	}
	for c := 0; c < cfg.Cities; c++ {
		if err := ins(rdf.Triple{S: IRI(CityName(c)), P: IRI("inCountry"), O: IRI(CountryName(c))}); err != nil {
			return n, err
		}
	}
	for i := 0; i < cfg.ExtraTriples; i++ {
		t := rdf.Triple{
			S: IRI(fmt.Sprintf("pad_s%d", i)),
			P: IRI(fmt.Sprintf("pad_p%d", i%97)),
			O: IRI(fmt.Sprintf("pad_o%d", rng.Intn(1000))),
		}
		if err := ins(t); err != nil {
			return n, err
		}
	}
	return n, nil
}

// RegisterDangerQuery registers the paper's `dangerQuery` stored SPARQL
// query (Example 4.5) in the shared namespace.
func RegisterDangerQuery(p *kb.Platform) error {
	return p.RegisterQuery("", "dangerQuery",
		`SELECT ?x WHERE { ?x <http://smartground.eu/onto#isA> <http://smartground.eu/onto#HazardousWaste> }`)
}

// CountRows is a test/experiment convenience.
func CountRows(db *engine.DB, table string) (int, error) {
	r, err := db.Query("SELECT COUNT(*) FROM " + table)
	if err != nil {
		return 0, err
	}
	return int(r.Rows[0][0].Int()), nil
}
