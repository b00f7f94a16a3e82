package sparql_test

// parity_test.go — semantic parity between the ID-native slot executor and
// the term-level oracle (internal/oracle: string-keyed bindings, full
// inter-stage materialisation). The suite asserts the compiled executor
// returns identical solution sets across OPTIONAL / UNION / FILTER /
// ORDER BY / DISTINCT / OFFSET+LIMIT and property paths, and a property
// test round-trips random BGPs through both. The executor reads a
// fixture's view; the oracle reads the fixture's triples.

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"crosse/internal/oracle"
	"crosse/internal/rdf"
	"crosse/internal/sparql"
)

// parityStore extends sampleStore with numeric data, multi-valued
// properties and deeper structure so every solution-modifier path has work
// to do.
func parityStore() *sparql.Fixture {
	st := sparql.SampleStore()
	for i := 0; i < 12; i++ {
		s := sparql.IRI(fmt.Sprintf("site%d", i))
		st.Add(rdf.Triple{S: s, P: sparql.IRI("rank"),
			O: rdf.NewTypedLiteral(fmt.Sprint(i), rdf.XSDInteger)})
		st.Add(rdf.Triple{S: s, P: sparql.IRI("zone"), O: sparql.IRI(fmt.Sprintf("zone%d", i%3))})
		if i%2 == 0 {
			st.Add(rdf.Triple{S: s, P: sparql.IRI("audited"), O: rdf.NewLiteral("yes")})
		}
		if i%3 == 0 {
			// A plain string that reads like a number: ORDER BY and FILTER
			// over ?site ?p ?o mix it with the integer ranks.
			st.Add(rdf.Triple{S: s, P: sparql.IRI("code"), O: rdf.NewLiteral(fmt.Sprint(i))})
		}
		if i%4 == 0 {
			st.Add(rdf.Triple{S: s, P: sparql.IRI("contains"), O: sparql.IRI("Mercury")})
			st.Add(rdf.Triple{S: s, P: sparql.IRI("contains"), O: sparql.IRI("Gold")})
		}
	}
	return st
}

// parityEvalOptions covers the executor's settings: the default, the
// forced-serial path, and parallel evaluation at several widths.
var parityEvalOptions = []sparql.Options{
	{},
	{Parallelism: 1},
	{Parallelism: 2},
	{Parallelism: 4},
}

func TestExecutorParityWithSeedSemantics(t *testing.T) {
	sparql.ForceParallel(t)
	st := parityStore()
	pre := `PREFIX s: <` + sparql.Onto + `> `
	cases := []struct {
		name  string
		query string
		// ordered: compare exact result sequences (ORDER BY with unique
		// keys). count: solution order is implementation-defined across the
		// cut, compare sizes and subset-ness (OFFSET/LIMIT without ORDER
		// BY). Default: compare solution multisets.
		ordered bool
		count   bool
	}{
		{name: "optional", query: pre + `SELECT ?x ?d WHERE { ?x s:isA ?c . OPTIONAL { ?x s:dangerLevel ?d } }`},
		{name: "optional nested", query: pre + `SELECT ?x ?d ?w WHERE { ?x s:isA ?c . OPTIONAL { ?x s:dangerLevel ?d . OPTIONAL { ?x s:weight ?w } } }`},
		{name: "union", query: pre + `SELECT ?x WHERE { { ?x s:isA s:PreciousMetal } UNION { ?x s:dangerLevel "high" } }`},
		{name: "union constrained", query: pre + `SELECT ?x ?y WHERE { ?x s:dangerLevel "high" . { ?x s:isA s:HazardousWaste } UNION { ?x s:foundWith ?y } }`},
		{name: "filter comparison", query: pre + `SELECT ?x WHERE { ?x s:weight ?w . FILTER (?w > 200) }`},
		{name: "filter pushdown multi", query: pre + `SELECT ?site ?r WHERE { ?site s:rank ?r . ?site s:zone ?z . FILTER (?r >= 4) . FILTER (?z != s:zone1) }`},
		{name: "filter bound optional", query: pre + `SELECT ?site WHERE { ?site s:rank ?r . OPTIONAL { ?site s:audited ?a } FILTER (!BOUND(?a)) }`},
		{name: "filter regex", query: pre + `SELECT ?x WHERE { ?x s:isA ?c . FILTER REGEX(STR(?x), "e") }`},
		{name: "filter logic", query: pre + `SELECT ?x WHERE { ?x s:dangerLevel ?d . FILTER (?d = "high" || ISIRI(?x) && ?d != "low") }`},
		{name: "order by", query: pre + `SELECT ?site ?r WHERE { ?site s:rank ?r } ORDER BY DESC(?r)`, ordered: true},
		{name: "order by unbound first", query: pre + `SELECT ?x ?d WHERE { ?x s:isA ?c . OPTIONAL { ?x s:dangerLevel ?d } } ORDER BY ?d ?x`, ordered: true},
		{name: "distinct", query: pre + `SELECT DISTINCT ?z WHERE { ?site s:zone ?z }`},
		{name: "distinct multi-var", query: pre + `SELECT DISTINCT ?z ?a WHERE { ?site s:zone ?z . OPTIONAL { ?site s:audited ?a } }`},
		{name: "order offset limit", query: pre + `SELECT ?site ?r WHERE { ?site s:rank ?r } ORDER BY ?r OFFSET 3 LIMIT 4`, ordered: true},
		{name: "offset limit unordered", query: pre + `SELECT ?site WHERE { ?site s:rank ?r } OFFSET 2 LIMIT 5`, count: true},
		{name: "distinct order limit", query: pre + `SELECT DISTINCT ?r WHERE { ?site s:rank ?r } ORDER BY DESC(?r) LIMIT 3`, ordered: true},
		{name: "path seq", query: pre + `SELECT ?c WHERE { s:Mercury s:isA/s:subClassOf* ?c }`},
		{name: "path alt inverse", query: pre + `SELECT ?x WHERE { s:Lead ^s:foundWith|s:isA ?x }`},
		{name: "path closure join", query: pre + `SELECT ?x ?c WHERE { ?x s:isA s:HazardousWaste . ?x s:isA/s:subClassOf+ ?c }`},
		{name: "path nested closure", query: pre + `SELECT ?x ?c WHERE { ?x (s:isA/s:subClassOf*)+ ?c }`},
		{name: "var predicate", query: pre + `SELECT ?p ?o WHERE { s:Mercury ?p ?o }`},
		{name: "mixed-type filter", query: pre + `SELECT ?site ?r WHERE { ?site s:rank ?r . FILTER (?r < "6") }`},
		{name: "mixed-type order by", query: pre + `SELECT ?x ?w WHERE { ?x ?p ?w } ORDER BY ?w`},
		{name: "mixed-type distinct order limit", query: pre + `SELECT DISTINCT ?w WHERE { ?x ?p ?w } ORDER BY DESC(?w) LIMIT 5`, ordered: true},
		{name: "ask true", query: pre + `ASK { ?x s:contains s:Gold }`},
		{name: "ask false", query: pre + `ASK { s:Gold s:contains ?x }`},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, err := sparql.Parse(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracle.SPARQL(st.Triples(), q)
			if err != nil {
				t.Fatal(err)
			}
			for _, opts := range parityEvalOptions {
				got, err := sparql.CompileEval(st, q, opts)
				if err != nil {
					t.Fatal(err)
				}
				if q.Form == sparql.Ask {
					if got.Bool != want.Bool {
						t.Fatalf("ASK: got %v, want %v", got.Bool, want.Bool)
					}
					continue
				}
				if !reflect.DeepEqual(got.Vars, want.Vars) {
					t.Fatalf("vars: got %v, want %v", got.Vars, want.Vars)
				}
				switch {
				case tc.ordered:
					g := sparql.RenderSeq(got.Bindings, got.Vars)
					w := sparql.RenderSeq(want.Bindings, want.Vars)
					if !reflect.DeepEqual(g, w) {
						t.Fatalf("ordered results differ (opts=%+v):\n got %v\nwant %v", opts, g, w)
					}
				case tc.count:
					if len(got.Bindings) != len(want.Bindings) {
						t.Fatalf("result size: got %d, want %d", len(got.Bindings), len(want.Bindings))
					}
					// Every returned solution must be a solution of the
					// unmodified query.
					full := *q
					full.Offset, full.Limit = 0, -1
					all, err := oracle.SPARQL(st.Triples(), &full)
					if err != nil {
						t.Fatal(err)
					}
					allSet := map[string]struct{}{}
					for _, s := range sparql.RenderBindings(all.Bindings, got.Vars) {
						allSet[s] = struct{}{}
					}
					for _, s := range sparql.RenderBindings(got.Bindings, got.Vars) {
						if _, ok := allSet[s]; !ok {
							t.Fatalf("solution %q not produced by the unmodified query", s)
						}
					}
				default:
					g := sparql.RenderBindings(got.Bindings, got.Vars)
					w := sparql.RenderBindings(want.Bindings, want.Vars)
					if !reflect.DeepEqual(g, w) {
						t.Fatalf("solution sets differ (opts=%+v):\n got %v\nwant %v", opts, g, w)
					}
				}
			}
		})
	}
}

// TestExecutorParityUnknownConstants pins the zero-length-path corner: a
// closure with Min 0 from a constant the store has never interned still
// yields the reflexive solution, exactly like term-level evaluation. The
// constant's synthetic ID, counted down from the top of the ID space, must
// never index a closure's visited bitset (512 MB), nested closures
// included.
func TestExecutorParityUnknownConstants(t *testing.T) {
	st := parityStore()
	pre := `PREFIX s: <` + sparql.Onto + `> `
	for _, src := range []string{
		pre + `SELECT ?c WHERE { s:NeverSeen s:subClassOf* ?c }`,
		pre + `SELECT ?x WHERE { ?x s:isA s:NeverSeen }`,
		pre + `ASK { s:NeverSeen s:isA s:AlsoNeverSeen }`,
		pre + `SELECT ?c WHERE { s:NeverSeen (s:subClassOf*)+ ?c }`,
		pre + `SELECT ?c WHERE { ?c (^s:subClassOf?)* s:NeverSeen }`,
		pre + `ASK { s:NeverSeen (s:isA/s:subClassOf*)* s:NeverSeen }`,
	} {
		q, err := sparql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.SPARQL(st.Triples(), q)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := sparql.CompileEval(st, q, sparql.Options{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 16<<20 {
			t.Fatalf("%s allocated %d MB", src, n>>20)
		}
		if q.Form == sparql.Ask {
			if got.Bool != want.Bool {
				t.Fatalf("%s: ASK got %v want %v", src, got.Bool, want.Bool)
			}
			continue
		}
		g := sparql.RenderBindings(got.Bindings, got.Vars)
		w := sparql.RenderBindings(want.Bindings, want.Vars)
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s:\n got %v\nwant %v", src, g, w)
		}
	}
}

// --- random BGPs, slot path vs term-level matching ---

// TestRandomBGPsSlotPathVsTermLevel checks random basic graph patterns of
// one to three triples, with variable predicates and variables shared
// across positions, against the oracle's term-level matching.
func TestRandomBGPsSlotPathVsTermLevel(t *testing.T) {
	sparql.ForceParallel(t)
	rng := rand.New(rand.NewSource(97))
	const ns = "http://x/"
	varNames := []string{"x", "y", "z", "w"}
	for trial := 0; trial < 80; trial++ {
		st := sparql.NewFixture()
		var triples []rdf.Triple
		for i := 0; i < 50; i++ {
			tr := rdf.Triple{
				S: rdf.NewIRI(fmt.Sprintf("%ss%d", ns, rng.Intn(7))),
				P: rdf.NewIRI(fmt.Sprintf("%sp%d", ns, rng.Intn(4))),
				O: rdf.NewIRI(fmt.Sprintf("%so%d", ns, rng.Intn(7))),
			}
			st.Add(tr)
			triples = append(triples, tr)
		}

		node := func() sparql.NodePattern {
			if rng.Intn(2) == 0 {
				return sparql.Variable(varNames[rng.Intn(len(varNames))])
			}
			// A constant sampled from the data (mostly) or a miss.
			if rng.Intn(8) == 0 {
				return sparql.Node(rdf.NewIRI(ns + "missing"))
			}
			tr := triples[rng.Intn(len(triples))]
			if rng.Intn(2) == 0 {
				return sparql.Node(tr.S)
			}
			return sparql.Node(tr.O)
		}
		pred := func() sparql.Path {
			if rng.Intn(4) == 0 {
				return sparql.PathVar{Name: varNames[rng.Intn(len(varNames))]}
			}
			return sparql.PathIRI{IRI: rdf.NewIRI(fmt.Sprintf("%sp%d", ns, rng.Intn(4)))}
		}

		n := 1 + rng.Intn(3)
		patterns := make([]sparql.TriplePattern, n)
		elems := make([]sparql.Element, n)
		for i := range patterns {
			patterns[i] = sparql.TriplePattern{S: node(), P: pred(), O: node()}
			elems[i] = patterns[i]
		}

		var vars []string
		seen := map[string]bool{}
		for _, tp := range patterns {
			pv, _ := tp.P.(sparql.PathVar)
			for _, v := range []string{tp.S.Var, pv.Name, tp.O.Var} {
				if v != "" && !seen[v] {
					seen[v] = true
					vars = append(vars, v)
				}
			}
		}
		q := &sparql.Query{Limit: -1, Vars: vars, Where: &sparql.Group{Elems: elems}}
		ref, err := oracle.SPARQL(st.Triples(), q)
		if err != nil {
			t.Fatal(err)
		}
		want := sparql.RenderBindings(ref.Bindings, vars)
		for _, opts := range []sparql.Options{{}, {Parallelism: 2}, {Parallelism: 4}} {
			res, err := sparql.CompileEval(st, q, opts)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			got := sparql.RenderBindings(res.Bindings, vars)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (opts=%+v): slot path %d solutions, term-level %d\npatterns: %v",
					trial, opts, len(got), len(want), patterns)
			}
		}
	}
}
