package sparql_test

import (
	"reflect"
	"strings"
	"testing"

	"crosse/internal/oracle"
	"crosse/internal/rdf"
	"crosse/internal/sparql"
)

// TestTermOrderPinnedByHand pins the term order, by hand-written answers,
// on the executor at Parallelism 1, 2 and 4 and on the oracle, which
// states the rule on its own: unbound first, then IRIs, then the numeric
// literals by value with NaN last and equal to NaN, then every other
// literal by lexical form. The values once made a cycle, 10 < "6" < 9 <
// 10, that no sort could honour.
func TestTermOrderPinnedByHand(t *testing.T) {
	sparql.ForceParallel(t)
	st := sparql.NewFixture()
	for name, v := range map[string]rdf.Term{
		"b": sparql.IRI("zz"),
		"c": rdf.NewTypedLiteral("2.5", rdf.XSDDouble),
		"d": rdf.NewTypedLiteral("9", rdf.XSDInteger),
		"e": rdf.NewTypedLiteral("10", rdf.XSDInteger),
		"f": rdf.NewTypedLiteral("NaN", rdf.XSDDouble),
		"g": rdf.NewTypedLiteral("NaN", rdf.XSDDouble),
		"h": rdf.NewLiteral("6"),
		"i": rdf.NewLiteral("abc"),
	} {
		st.Add(rdf.Triple{S: sparql.IRI(name), P: sparql.IRI("v"), O: v})
	}
	for _, name := range []string{"a", "b", "c", "d", "e", "f", "g", "h", "i"} {
		st.Add(rdf.Triple{S: sparql.IRI(name), P: sparql.IRI("in"), O: sparql.IRI("set")})
	}
	pre := `PREFIX s: <` + sparql.Onto + `> SELECT ?x WHERE { ?x s:in s:set . OPTIONAL { ?x s:v ?v } `
	for _, c := range []struct{ tail, want string }{
		{`} ORDER BY ?v ?x`, "a b c d e f g h i"},
		{`} ORDER BY DESC(?v) ?x`, "i h f g e d c b a"},
		{`FILTER (?v < "6") } ORDER BY ?x`, "b c d e f g"},
		{`FILTER (?v < 10) } ORDER BY ?x`, "b c d"},
		{`FILTER (?v > 10) } ORDER BY ?x`, "f g h i"},
		{`FILTER (?v >= "6") } ORDER BY ?x`, "h i"},
		{`. ?y s:in s:set . OPTIONAL { ?y s:v ?w } FILTER (?v = ?w && ?x != ?y) } ORDER BY ?x`, "f g"},
	} {
		q, err := sparql.Parse(pre + c.tail)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := oracle.SPARQL(st.Triples(), q)
		if err != nil {
			t.Fatal(err)
		}
		if got := localNames(ref.Bindings); got != c.want {
			t.Errorf("%s: oracle %s, want %s", c.tail, got, c.want)
		}
		for _, opts := range []sparql.Options{{Parallelism: 1}, {Parallelism: 2}, {Parallelism: 4}} {
			res, err := sparql.CompileEval(st, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := localNames(res.Bindings); got != c.want {
				t.Errorf("%s (opts=%+v): executor %s, want %s", c.tail, opts, got, c.want)
			}
		}
	}
	// DISTINCT ?v: the two NaN objects are one term, so seven values come
	// out, in the executor's order and the oracle's alike.
	q, err := sparql.Parse(`PREFIX s: <` + sparql.Onto + `> SELECT DISTINCT ?v WHERE { ?x s:v ?v } ORDER BY ?v`)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := oracle.SPARQL(st.Triples(), q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sparql.CompileEval(st, q, sparql.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := sparql.RenderSeq(res.Bindings, res.Vars), sparql.RenderSeq(ref.Bindings, ref.Vars); !reflect.DeepEqual(g, w) || len(g) != 7 {
		t.Errorf("DISTINCT ?v ordered: executor %v, oracle %v, want 7 values", g, w)
	}
}

// localNames renders the ?x column as the IRIs' local names.
func localNames(bs []sparql.Binding) string {
	names := make([]string, len(bs))
	for i, b := range bs {
		names[i] = strings.TrimPrefix(b["x"].Value, sparql.Onto)
	}
	return strings.Join(names, " ")
}
