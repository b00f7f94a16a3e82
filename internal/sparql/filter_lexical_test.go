package sparql_test

import (
	"testing"

	"crosse/internal/oracle"
	"crosse/internal/rdf"
	"crosse/internal/sparql"
)

// TestFilterLexicalFormsPinnedByHand pins, by hand-written answers, what
// REGEX, STR, ! and BOUND read from each kind of term — a blank node's
// label, a typed literal's lexical form, an IRI's string, a plain literal
// — and that an unbound variable drops the solution, except where || or
// !BOUND decide without it. The executor reads lexical forms without
// building terms; the oracle evaluates terms. Both must give the answer,
// the executor at Parallelism 1, 2 and 4.
func TestFilterLexicalFormsPinnedByHand(t *testing.T) {
	sparql.ForceParallel(t)
	st := sparql.NewFixture()
	for name, v := range map[string]rdf.Term{
		"a": rdf.NewBlank("k42"),
		"b": rdf.NewTypedLiteral("42", rdf.XSDInteger),
		"c": sparql.IRI("t42"),
		"d": rdf.NewLiteral("x"),
	} {
		st.Add(rdf.Triple{S: sparql.IRI(name), P: sparql.IRI("v"), O: v})
	}
	for name, p := range map[string]string{"a": "^k4", "b": "^4", "c": "zzz"} {
		st.Add(rdf.Triple{S: sparql.IRI(name), P: sparql.IRI("pat"), O: rdf.NewLiteral(p)})
	}
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		st.Add(rdf.Triple{S: sparql.IRI(name), P: sparql.IRI("in"), O: sparql.IRI("set")})
	}
	pre := `PREFIX s: <` + sparql.Onto + `> SELECT ?x WHERE { ?x s:in s:set . OPTIONAL { ?x s:v ?v } OPTIONAL { ?x s:pat ?p } `
	for _, c := range []struct{ filter, want string }{
		{`FILTER REGEX(STR(?v), "42")`, "a b c"},
		{`FILTER REGEX(?v, "42")`, "a b c"},
		{`FILTER REGEX(STR(STR(?v)), "^k")`, "a"},
		{`FILTER REGEX(?v, "^http")`, "c"},
		{`FILTER REGEX(STR(?v), "X", "i")`, "d"},
		{`FILTER (!REGEX(STR(?v), "42"))`, "d"},
		{`FILTER (!BOUND(?v))`, "e"},
		{`FILTER (!!BOUND(?v))`, "a b c d"},
		{`FILTER (REGEX(STR(?v), "^k") || !BOUND(?v))`, "a e"},
		{`FILTER (REGEX(STR(?v), "4") && !REGEX(?v, "t"))`, "a b"},
		{`FILTER (STR(?v) = "42")`, "b"},
		{`FILTER REGEX(?v, ?p)`, "a b"},
		{`FILTER REGEX(STR(?v), STR(?p))`, "a b"},
		{`FILTER REGEX("k42", ?p)`, "a"},
	} {
		q, err := sparql.Parse(pre + c.filter + ` } ORDER BY ?x`)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := oracle.SPARQL(st.Triples(), q)
		if err != nil {
			t.Fatal(err)
		}
		if got := localNames(ref.Bindings); got != c.want {
			t.Errorf("%s: oracle %q, want %q", c.filter, got, c.want)
		}
		for _, opts := range []sparql.Options{{Parallelism: 1}, {Parallelism: 2}, {Parallelism: 4}} {
			res, err := sparql.CompileEval(st, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := localNames(res.Bindings); got != c.want {
				t.Errorf("%s (opts=%+v): executor %q, want %q", c.filter, opts, got, c.want)
			}
		}
	}
}
