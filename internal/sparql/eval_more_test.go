package sparql

import (
	"reflect"
	"strings"
	"testing"

	"crosse/internal/rdf"
)

func TestOptionalClosureAndNestedGroups(t *testing.T) {
	st := sampleStore()
	// p? optional step: zero or one hop.
	r, err := Eval(st, `PREFIX s: <`+onto+`>
SELECT ?c WHERE { s:HazardousWaste s:subClassOf? ?c }`)
	if err != nil {
		t.Fatal(err)
	}
	got := bindingsOf(t, r, "c")
	want := []string{"HazardousWaste", "Waste"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("p? closure: %v", got)
	}
}

func TestPathSeqWithClosure(t *testing.T) {
	st := sampleStore()
	// isA then any number of subClassOf.
	r, err := Eval(st, `PREFIX s: <`+onto+`>
SELECT ?c WHERE { s:Mercury s:isA/s:subClassOf* ?c }`)
	if err != nil {
		t.Fatal(err)
	}
	got := bindingsOf(t, r, "c")
	want := []string{"HazardousWaste", "Material", "Waste"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("seq+closure: %v", got)
	}
}

func TestClosureBothSidesUnbound(t *testing.T) {
	st := newFixture()
	a, b, c := iri("a"), iri("b"), iri("c")
	next := iri("next")
	st.Add(rdf.Triple{S: a, P: next, O: b})
	st.Add(rdf.Triple{S: b, P: next, O: c})
	r, err := Eval(st, `PREFIX s: <`+onto+`> SELECT ?x ?y WHERE { ?x s:next+ ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	// pairs: a→b, a→c, b→c (c has no outgoing, it is not a subject).
	if len(r.Bindings) != 3 {
		t.Errorf("unbound closure pairs = %d: %v", len(r.Bindings), r.Bindings)
	}
}

func TestFilterStringFunctionsDeep(t *testing.T) {
	st := sampleStore()
	r, err := Eval(st, `PREFIX s: <`+onto+`>
SELECT ?x WHERE { ?x s:isA s:HazardousWaste . FILTER (ISIRI(?x) && STR(?x) != "") }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Bindings) != 3 {
		t.Errorf("isiri+str: %d", len(r.Bindings))
	}
	// ISLITERAL on an IRI is false.
	r2, err := Eval(st, `PREFIX s: <`+onto+`>
SELECT ?x WHERE { ?x s:isA s:HazardousWaste . FILTER ISLITERAL(?x) }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Bindings) != 0 {
		t.Errorf("ISLITERAL(IRI): %d", len(r2.Bindings))
	}
}

func TestBadConstantRegexIsCompileError(t *testing.T) {
	st := sampleStore()
	// Constant regex patterns are precompiled into the plan, so an invalid
	// one is rejected before evaluation instead of silently dropping every
	// solution per-row.
	if _, err := Eval(st, `PREFIX s: <`+onto+`>
SELECT ?x WHERE { ?x s:isA ?c . FILTER REGEX(STR(?x), "[unclosed") }`); err == nil {
		t.Fatal("invalid constant REGEX pattern must fail at compile time")
	}
	q, err := Parse(`PREFIX s: <` + onto + `>
SELECT ?x WHERE { ?x s:isA ?c . FILTER REGEX(STR(?x), "[unclosed") }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(q); err == nil {
		t.Fatal("Compile must reject the invalid pattern")
	}
}

func TestBadDynamicRegexDropsSolutions(t *testing.T) {
	st := sampleStore()
	// A pattern computed per solution can only fail at evaluation time;
	// there the original semantics hold: filter errors drop the solution,
	// they never fail the query.
	r, err := Eval(st, `PREFIX s: <`+onto+`>
SELECT ?x WHERE { ?x s:dangerLevel ?d . FILTER REGEX(STR(?x), STR(?d)) }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Bindings) != 0 {
		t.Errorf("dynamic regex matching nothing: %d", len(r.Bindings))
	}
}

func TestFilterArityErrors(t *testing.T) {
	st := sampleStore()
	// Arity errors are evaluation errors → solutions dropped, not parse
	// errors (BOUND arity is checked at eval time).
	r, err := Eval(st, `PREFIX s: <`+onto+`>
SELECT ?x WHERE { ?x s:isA ?c . FILTER BOUND(?x, ?c) }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Bindings) != 0 {
		t.Errorf("arity error should drop solutions: %d", len(r.Bindings))
	}
}

func TestOrderByUnboundSortsFirst(t *testing.T) {
	st := sampleStore()
	r, err := Eval(st, `PREFIX s: <`+onto+`>
SELECT ?x ?d WHERE { ?x s:isA ?c . OPTIONAL { ?x s:dangerLevel ?d } } ORDER BY ?d`)
	if err != nil {
		t.Fatal(err)
	}
	if _, bound := r.Bindings[0]["d"]; bound {
		t.Errorf("unbound must sort first: %v", r.Bindings[0])
	}
}

func TestUnionWithSharedVariableConstraint(t *testing.T) {
	st := sampleStore()
	// The variable bound before the UNION constrains both branches.
	r, err := Eval(st, `PREFIX s: <`+onto+`>
SELECT ?x WHERE { ?x s:dangerLevel "high" . { ?x s:isA s:HazardousWaste } UNION { ?x s:foundWith ?y } }`)
	if err != nil {
		t.Fatal(err)
	}
	got := bindingsOf(t, r, "x")
	// Mercury: hazard + foundWith(Lead) → 2 solutions; Lead: hazard +
	// foundWith(Zinc) → 2 solutions.
	if len(got) != 4 {
		t.Errorf("union solutions: %v", got)
	}
}

func TestNumericComparisonAcrossIntAndDouble(t *testing.T) {
	st := newFixture()
	st.Add(rdf.Triple{S: iri("x"), P: iri("v"), O: rdf.NewTypedLiteral("5", rdf.XSDInteger)})
	st.Add(rdf.Triple{S: iri("y"), P: iri("v"), O: rdf.NewTypedLiteral("5.5", rdf.XSDDouble)})
	r, err := Eval(st, `PREFIX s: <`+onto+`> SELECT ?a WHERE { ?a s:v ?n . FILTER (?n > 5.2) }`)
	if err != nil {
		t.Fatal(err)
	}
	if got := bindingsOf(t, r, "a"); !reflect.DeepEqual(got, []string{"y"}) {
		t.Errorf("cross-type numeric compare: %v", got)
	}
}

func TestBooleanLiteralsInFilters(t *testing.T) {
	st := sampleStore()
	r, err := Eval(st, `PREFIX s: <`+onto+`>
SELECT ?x WHERE { ?x s:isA s:PreciousMetal . FILTER (true) }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Bindings) != 1 {
		t.Errorf("FILTER(true): %d", len(r.Bindings))
	}
	r, err = Eval(st, `PREFIX s: <`+onto+`>
SELECT ?x WHERE { ?x s:isA s:PreciousMetal . FILTER (false || !false) }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Bindings) != 1 {
		t.Errorf("FILTER logic: %d", len(r.Bindings))
	}
}

func TestAskNoMatchAndEmptyGroup(t *testing.T) {
	st := sampleStore()
	r, err := Eval(st, `ASK { }`)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Bool {
		t.Error("empty group matches the empty solution → true")
	}
}

func TestQueryStringRendering(t *testing.T) {
	q, err := Parse(`PREFIX s: <` + onto + `>
SELECT DISTINCT ?x WHERE { ?x s:isA ?c . OPTIONAL { ?x s:dangerLevel ?d } FILTER (BOUND(?d)) } ORDER BY ?x LIMIT 3 OFFSET 1`)
	if err != nil {
		t.Fatal(err)
	}
	s := q.String()
	for _, want := range []string{"SELECT DISTINCT", "OPTIONAL", "FILTER", "ORDER BY", "LIMIT 3", "OFFSET 1", "BOUND"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q in %s", want, s)
		}
	}
}

func TestVariablePredicateBoundByEarlierPattern(t *testing.T) {
	st := sampleStore()
	// ?p gets bound by the first pattern, constrains the second.
	r, err := Eval(st, `PREFIX s: <`+onto+`>
SELECT ?p WHERE { s:Mercury ?p s:Lead . s:Lead ?p s:Zinc }`)
	if err != nil {
		t.Fatal(err)
	}
	if got := bindingsOf(t, r, "p"); !reflect.DeepEqual(got, []string{"foundWith"}) {
		t.Errorf("shared variable predicate: %v", got)
	}
}

func (b Binding) clone() Binding {
	c := make(Binding, len(b)+1)
	for k, v := range b {
		c[k] = v
	}
	return c
}
