package sparql

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"crosse/internal/rdf"
)

const onto = "http://smartground.eu/onto#"

func iri(local string) rdf.Term { return rdf.NewIRI(onto + local) }

func sampleStore() *fixture {
	st := newFixture()
	add := func(s, p, o string) { st.Add(rdf.Triple{S: iri(s), P: iri(p), O: iri(o)}) }
	add("Mercury", "isA", "HazardousWaste")
	add("Lead", "isA", "HazardousWaste")
	add("Asbestos", "isA", "HazardousWaste")
	add("Gold", "isA", "PreciousMetal")
	add("HazardousWaste", "subClassOf", "Waste")
	add("PreciousMetal", "subClassOf", "Metal")
	add("Metal", "subClassOf", "Material")
	add("Waste", "subClassOf", "Material")
	add("Mercury", "foundWith", "Lead")
	add("Lead", "foundWith", "Zinc")
	st.Add(rdf.Triple{S: iri("Mercury"), P: iri("dangerLevel"), O: rdf.NewLiteral("high")})
	st.Add(rdf.Triple{S: iri("Lead"), P: iri("dangerLevel"), O: rdf.NewLiteral("high")})
	st.Add(rdf.Triple{S: iri("Gold"), P: iri("dangerLevel"), O: rdf.NewLiteral("low")})
	st.Add(rdf.Triple{S: iri("Mercury"), P: iri("weight"), O: rdf.NewTypedLiteral("200.59", rdf.XSDDouble)})
	st.Add(rdf.Triple{S: iri("Lead"), P: iri("weight"), O: rdf.NewTypedLiteral("207.2", rdf.XSDDouble)})
	st.Add(rdf.Triple{S: iri("Gold"), P: iri("weight"), O: rdf.NewTypedLiteral("196.97", rdf.XSDDouble)})
	return st
}

func bindingsOf(t *testing.T, r *Result, v string) []string {
	t.Helper()
	var out []string
	for _, b := range r.Bindings {
		if term, ok := b[v]; ok {
			out = append(out, strings.TrimPrefix(term.Value, onto))
		} else {
			out = append(out, "<unbound>")
		}
	}
	sort.Strings(out)
	return out
}

func TestBasicSelect(t *testing.T) {
	st := sampleStore()
	r, err := Eval(st, `SELECT ?x WHERE { ?x <`+onto+`isA> <`+onto+`HazardousWaste> }`)
	if err != nil {
		t.Fatal(err)
	}
	got := bindingsOf(t, r, "x")
	want := []string{"Asbestos", "Lead", "Mercury"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestPrefixedNames(t *testing.T) {
	st := sampleStore()
	r, err := Eval(st, `PREFIX s: <`+onto+`> SELECT ?x WHERE { ?x s:isA s:PreciousMetal }`)
	if err != nil {
		t.Fatal(err)
	}
	if got := bindingsOf(t, r, "x"); !reflect.DeepEqual(got, []string{"Gold"}) {
		t.Errorf("got %v", got)
	}
}

func TestBuiltinSmgPrefix(t *testing.T) {
	st := newFixture()
	st.Add(rdf.Triple{S: rdf.NewIRI(onto + "a"), P: rdf.NewIRI(onto + "p"), O: rdf.NewIRI(onto + "b")})
	r, err := Eval(st, `SELECT ?x WHERE { smg:a smg:p ?x }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Bindings) != 1 {
		t.Errorf("smg: builtin prefix should resolve, got %d bindings", len(r.Bindings))
	}
}

func TestBGPJoin(t *testing.T) {
	st := sampleStore()
	// Elements that are hazardous AND have dangerLevel high.
	q := `PREFIX s: <` + onto + `>
SELECT ?x WHERE { ?x s:isA s:HazardousWaste . ?x s:dangerLevel "high" }`
	r, err := Eval(st, q)
	if err != nil {
		t.Fatal(err)
	}
	got := bindingsOf(t, r, "x")
	want := []string{"Lead", "Mercury"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestSelectStar(t *testing.T) {
	st := sampleStore()
	r, err := Eval(st, `PREFIX s: <`+onto+`> SELECT * WHERE { ?s s:foundWith ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Vars, []string{"s", "o"}) {
		t.Errorf("Vars = %v", r.Vars)
	}
	if len(r.Bindings) != 2 {
		t.Errorf("bindings = %d, want 2", len(r.Bindings))
	}
}

func TestFilterComparison(t *testing.T) {
	st := sampleStore()
	q := `PREFIX s: <` + onto + `>
SELECT ?x WHERE { ?x s:weight ?w . FILTER (?w > 200) }`
	r, err := Eval(st, q)
	if err != nil {
		t.Fatal(err)
	}
	got := bindingsOf(t, r, "x")
	want := []string{"Lead", "Mercury"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestFilterLogicAndRegex(t *testing.T) {
	st := sampleStore()
	q := `PREFIX s: <` + onto + `>
SELECT ?x WHERE { ?x s:dangerLevel ?d . FILTER (?d = "high" && REGEX(STR(?x), "Merc")) }`
	r, err := Eval(st, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := bindingsOf(t, r, "x"); !reflect.DeepEqual(got, []string{"Mercury"}) {
		t.Errorf("got %v", got)
	}
	// Case-insensitive flag.
	q2 := `PREFIX s: <` + onto + `>
SELECT ?x WHERE { ?x s:dangerLevel "low" . FILTER REGEX(STR(?x), "gold", "i") }`
	r2, err := Eval(st, q2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Bindings) != 1 {
		t.Errorf("case-insensitive regex failed")
	}
}

func TestFilterNotAndNe(t *testing.T) {
	st := sampleStore()
	q := `PREFIX s: <` + onto + `>
SELECT ?x WHERE { ?x s:dangerLevel ?d . FILTER (!(?d = "high")) }`
	r, err := Eval(st, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := bindingsOf(t, r, "x"); !reflect.DeepEqual(got, []string{"Gold"}) {
		t.Errorf("got %v", got)
	}
}

func TestOptional(t *testing.T) {
	st := sampleStore()
	q := `PREFIX s: <` + onto + `>
SELECT ?x ?d WHERE { ?x s:isA ?c . OPTIONAL { ?x s:dangerLevel ?d } }`
	r, err := Eval(st, q)
	if err != nil {
		t.Fatal(err)
	}
	// Asbestos has no dangerLevel: must still appear, unbound d.
	foundAsbestosUnbound := false
	for _, b := range r.Bindings {
		if strings.HasSuffix(b["x"].Value, "Asbestos") {
			if _, ok := b["d"]; !ok {
				foundAsbestosUnbound = true
			}
		}
	}
	if !foundAsbestosUnbound {
		t.Error("OPTIONAL must keep Asbestos with unbound ?d")
	}
	if len(r.Bindings) != 4 {
		t.Errorf("got %d solutions, want 4", len(r.Bindings))
	}
}

func TestUnion(t *testing.T) {
	st := sampleStore()
	q := `PREFIX s: <` + onto + `>
SELECT ?x WHERE { { ?x s:isA s:PreciousMetal } UNION { ?x s:dangerLevel "high" } }`
	r, err := Eval(st, q)
	if err != nil {
		t.Fatal(err)
	}
	got := bindingsOf(t, r, "x")
	want := []string{"Gold", "Lead", "Mercury"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestDistinctOrderLimitOffset(t *testing.T) {
	st := sampleStore()
	q := `PREFIX s: <` + onto + `>
SELECT DISTINCT ?d WHERE { ?x s:dangerLevel ?d } ORDER BY ?d`
	r, err := Eval(st, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Bindings) != 2 {
		t.Fatalf("DISTINCT: got %d, want 2", len(r.Bindings))
	}
	if r.Bindings[0]["d"].Value != "high" || r.Bindings[1]["d"].Value != "low" {
		t.Errorf("ORDER BY wrong: %v", r.Bindings)
	}

	q2 := `PREFIX s: <` + onto + `>
SELECT ?x WHERE { ?x s:weight ?w } ORDER BY DESC(?w) LIMIT 1`
	r2, err := Eval(st, q2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Bindings) != 1 || !strings.HasSuffix(r2.Bindings[0]["x"].Value, "Lead") {
		t.Errorf("heaviest should be Lead: %v", r2.Bindings)
	}

	q3 := `PREFIX s: <` + onto + `>
SELECT ?x WHERE { ?x s:weight ?w } ORDER BY ASC(?w) OFFSET 1 LIMIT 1`
	r3, err := Eval(st, q3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r3.Bindings) != 1 || !strings.HasSuffix(r3.Bindings[0]["x"].Value, "Mercury") {
		t.Errorf("OFFSET/LIMIT wrong: %v", r3.Bindings)
	}
}

func TestAsk(t *testing.T) {
	st := sampleStore()
	r, err := Eval(st, `PREFIX s: <`+onto+`> ASK { s:Mercury s:isA s:HazardousWaste }`)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Bool {
		t.Error("ASK should be true")
	}
	r2, err := Eval(st, `PREFIX s: <`+onto+`> ASK { s:Gold s:isA s:HazardousWaste }`)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Bool {
		t.Error("ASK should be false")
	}
}

func TestPathSequence(t *testing.T) {
	st := sampleStore()
	// isA/subClassOf: Mercury → HazardousWaste → Waste.
	q := `PREFIX s: <` + onto + `>
SELECT ?c WHERE { s:Mercury s:isA/s:subClassOf ?c }`
	r, err := Eval(st, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := bindingsOf(t, r, "c"); !reflect.DeepEqual(got, []string{"Waste"}) {
		t.Errorf("got %v", got)
	}
}

func TestPathAlternative(t *testing.T) {
	st := sampleStore()
	q := `PREFIX s: <` + onto + `>
SELECT ?x WHERE { s:Mercury s:foundWith|s:isA ?x }`
	r, err := Eval(st, q)
	if err != nil {
		t.Fatal(err)
	}
	got := bindingsOf(t, r, "x")
	want := []string{"HazardousWaste", "Lead"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestPathPlusTransitive(t *testing.T) {
	st := sampleStore()
	q := `PREFIX s: <` + onto + `>
SELECT ?c WHERE { s:HazardousWaste s:subClassOf+ ?c }`
	r, err := Eval(st, q)
	if err != nil {
		t.Fatal(err)
	}
	got := bindingsOf(t, r, "c")
	want := []string{"Material", "Waste"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestPathStarIncludesSelf(t *testing.T) {
	st := sampleStore()
	q := `PREFIX s: <` + onto + `>
SELECT ?c WHERE { s:Waste s:subClassOf* ?c }`
	r, err := Eval(st, q)
	if err != nil {
		t.Fatal(err)
	}
	got := bindingsOf(t, r, "c")
	want := []string{"Material", "Waste"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestPathInverse(t *testing.T) {
	st := sampleStore()
	q := `PREFIX s: <` + onto + `>
SELECT ?x WHERE { s:HazardousWaste ^s:isA ?x }`
	r, err := Eval(st, q)
	if err != nil {
		t.Fatal(err)
	}
	got := bindingsOf(t, r, "x")
	want := []string{"Asbestos", "Lead", "Mercury"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestPathClosureObjectBound(t *testing.T) {
	st := sampleStore()
	q := `PREFIX s: <` + onto + `>
SELECT ?x WHERE { ?x s:subClassOf+ s:Material }`
	r, err := Eval(st, q)
	if err != nil {
		t.Fatal(err)
	}
	got := bindingsOf(t, r, "x")
	want := []string{"HazardousWaste", "Metal", "PreciousMetal", "Waste"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestVariablePredicate(t *testing.T) {
	st := sampleStore()
	q := `PREFIX s: <` + onto + `> SELECT ?p ?o WHERE { s:Gold ?p ?o }`
	r, err := Eval(st, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Bindings) != 3 {
		t.Errorf("Gold has 3 facts, got %d", len(r.Bindings))
	}
}

func TestPredicateObjectLists(t *testing.T) {
	st := sampleStore()
	q := `PREFIX s: <` + onto + `>
SELECT ?x WHERE { ?x s:isA s:HazardousWaste ; s:dangerLevel "high" }`
	r, err := Eval(st, q)
	if err != nil {
		t.Fatal(err)
	}
	got := bindingsOf(t, r, "x")
	want := []string{"Lead", "Mercury"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestBoundAndIsFunctions(t *testing.T) {
	st := sampleStore()
	q := `PREFIX s: <` + onto + `>
SELECT ?x WHERE { ?x s:isA ?c . OPTIONAL { ?x s:dangerLevel ?d } FILTER (!BOUND(?d)) }`
	r, err := Eval(st, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := bindingsOf(t, r, "x"); !reflect.DeepEqual(got, []string{"Asbestos"}) {
		t.Errorf("got %v", got)
	}
	q2 := `PREFIX s: <` + onto + `>
SELECT ?o WHERE { s:Mercury ?p ?o . FILTER (ISLITERAL(?o)) }`
	r2, err := Eval(st, q2)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range r2.Bindings {
		if !b["o"].IsLiteral() {
			t.Errorf("ISLITERAL let through %v", b["o"])
		}
	}
}

func TestRdfTypeKeywordA(t *testing.T) {
	st := newFixture()
	st.Add(rdf.Triple{S: iri("Mercury"), P: rdf.NewIRI(rdf.RDFType), O: iri("Element")})
	r, err := Eval(st, `PREFIX s: <`+onto+`> SELECT ?x WHERE { ?x a s:Element }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Bindings) != 1 {
		t.Errorf("keyword 'a' failed: %v", r.Bindings)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"FROB ?x WHERE { ?x ?p ?o }",
		"SELECT WHERE { ?x ?p ?o }",
		"SELECT ?x { ?x ?p ?o ",
		"SELECT ?x WHERE { ?x ?p ?o } LIMIT x",
		"SELECT ?x WHERE { ?x ?p ?o } ORDER BY",
		`SELECT ?x WHERE { ?x "litpred" ?o }`,
		"SELECT ?x WHERE { ?x unknown:p ?o }",
		"SELECT ?x WHERE { FILTER (?x =) }",
		"SELECT ?x WHERE { { ?x ?p ?o } NOTUNION { ?x ?p ?o } }",
		"SELECT ?x WHERE { ?x ?p ?o } trailing",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParsePrintParseFixpoint(t *testing.T) {
	queries := []string{
		`SELECT ?x WHERE { ?x <` + onto + `isA> <` + onto + `HazardousWaste> . }`,
		`SELECT DISTINCT ?x ?y WHERE { ?x <` + onto + `p> ?y . FILTER ((?y > 3)) } ORDER BY DESC(?y) LIMIT 5`,
		`ASK WHERE { <` + onto + `a> <` + onto + `b> "lit" . }`,
		`SELECT ?x WHERE { { ?x <` + onto + `p> ?y . } UNION { ?x <` + onto + `q> ?y . } }`,
		`SELECT ?x WHERE { ?x (<` + onto + `p>/<` + onto + `q>)+ ?y . OPTIONAL { ?y <` + onto + `r> ?z . } }`,
	}
	for _, src := range queries {
		q1, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		printed := q1.String()
		q2, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse %q: %v", printed, err)
		}
		if q2.String() != printed {
			t.Errorf("fixpoint failed:\n first: %s\nsecond: %s", printed, q2.String())
		}
	}
}

func TestEvalAgainstLargerGraphChain(t *testing.T) {
	// A chain a0→a1→…→a50; transitive closure from a0 must find all.
	st := newFixture()
	for i := 0; i < 50; i++ {
		st.Add(rdf.Triple{
			S: iri(fmt.Sprintf("a%d", i)),
			P: iri("next"),
			O: iri(fmt.Sprintf("a%d", i+1)),
		})
	}
	r, err := Eval(st, `PREFIX s: <`+onto+`> SELECT ?x WHERE { s:a0 s:next+ ?x }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Bindings) != 50 {
		t.Errorf("closure found %d nodes, want 50", len(r.Bindings))
	}
}

func TestFilterOnUnboundDropsSolution(t *testing.T) {
	st := sampleStore()
	q := `PREFIX s: <` + onto + `>
SELECT ?x WHERE { ?x s:isA ?c . OPTIONAL { ?x s:dangerLevel ?d } FILTER (?d = "high") }`
	r, err := Eval(st, q)
	if err != nil {
		t.Fatal(err)
	}
	// Asbestos (unbound ?d) must be dropped, not error out the query.
	got := bindingsOf(t, r, "x")
	want := []string{"Lead", "Mercury"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}
