package sparql_test

// query_fuzz_test.go — whole SELECT queries against the term-level oracle:
// FuzzSPARQLQuery decodes bytes into a query over parityStore (BGPs with
// variable predicates and property paths, nested OPTIONAL and UNION,
// FILTER, DISTINCT, ORDER BY, OFFSET and LIMIT) and requires the executor
// to answer what the oracle answers at Parallelism 1, 2 and 4.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"crosse/internal/oracle"
	"crosse/internal/sparql"
)

// The generator's vocabulary: parityStore's variables, IRIs, literals and
// predicates, plus a constant the store has never seen and three paths.
var (
	queryVars  = []string{"x", "y", "c", "d", "w", "r", "z", "a", "site"}
	queryIRIs  = []string{"s:Mercury", "s:Lead", "s:Gold", "s:HazardousWaste", "s:PreciousMetal", "s:zone1", "s:NeverSeen"}
	queryLits  = []string{`"high"`, `"low"`, `"yes"`, "200", "4", `"6"`}
	queryPreds = []string{"s:isA", "s:dangerLevel", "s:weight", "s:foundWith", "s:subClassOf", "s:rank",
		"s:zone", "s:audited", "s:contains", "s:isA/s:subClassOf*", "s:isA/s:subClassOf+", "^s:foundWith|s:isA", "?p"}
	queryOps = []string{"=", "!=", "<", "<=", ">", ">="}
)

// queryGen builds query text from a stream of choices: pick(n) returns a
// value in [0, n). FuzzSPARQLQuery feeds pick from its input bytes
// (bytePicker), so the order of the picks is the fuzz input format.
type queryGen struct{ pick func(n int) int }

func (g queryGen) variable() string { return "?" + queryVars[g.pick(len(queryVars))] }

// node is a triple pattern's subject (a variable or an IRI) or object (a
// variable, an IRI or a literal).
func (g queryGen) node(object bool) string {
	terms := queryIRIs
	if object {
		terms = append(terms[:len(terms):len(terms)], queryLits...)
	}
	i := g.pick(len(queryVars) + len(terms))
	if i < len(queryVars) {
		return "?" + queryVars[i]
	}
	return terms[i-len(queryVars)]
}

// group is zero to three triple patterns, then zero to two of OPTIONAL,
// UNION (at depth > 0) and FILTER.
func (g queryGen) group(depth int) string {
	var elems []string
	for n := g.pick(4); n > 0; n-- {
		elems = append(elems, g.node(false)+" "+queryPreds[g.pick(len(queryPreds))]+" "+g.node(true))
	}
	for n := g.pick(3); n > 0; n-- {
		switch g.pick(3) {
		case 0:
			if depth > 0 {
				elems = append(elems, "OPTIONAL "+g.group(depth-1))
			}
		case 1:
			if depth > 0 {
				elems = append(elems, g.group(depth-1)+" UNION "+g.group(depth-1))
			}
		default:
			elems = append(elems, "FILTER ("+g.expr(2)+")")
		}
	}
	return "{ " + strings.Join(elems, " . ") + " }"
}

// expr is a FILTER expression, nested at most depth deep.
func (g queryGen) expr(depth int) string {
	switch k := g.pick(6); {
	case k == 0:
		return g.variable() + " " + queryOps[g.pick(len(queryOps))] + " " + g.node(true)
	case k == 2 && depth > 0:
		return "!(" + g.expr(depth-1) + ")"
	case k == 2:
		return "!BOUND(" + g.variable() + ")"
	case k == 3:
		return "REGEX(STR(" + g.variable() + "), \"e\")"
	case k == 4:
		return "ISIRI(" + g.variable() + ")"
	case k == 5 && depth > 0:
		l := g.expr(depth - 1)
		return "(" + l + []string{" && ", " || "}[g.pick(2)] + g.expr(depth-1) + ")"
	default:
		return "BOUND(" + g.variable() + ")"
	}
}

// query is a whole SELECT: DISTINCT or not, the WHERE group, SELECT * or
// one to three distinct variables, up to two ORDER BY keys drawn from the
// projection (from all variables under SELECT *), an OFFSET of 0-3 and a
// LIMIT of 0-5 or none.
func (g queryGen) query() string {
	var b strings.Builder
	b.WriteString("PREFIX s: <" + sparql.Onto + "> SELECT ")
	if g.pick(2) == 1 {
		b.WriteString("DISTINCT ")
	}
	where := g.group(2)
	var proj []string
	for n := g.pick(4); n > 0; n-- {
		if v := g.variable(); !strings.Contains(" "+strings.Join(proj, " ")+" ", " "+v+" ") {
			proj = append(proj, v)
		}
	}
	if len(proj) == 0 {
		b.WriteString("*")
	}
	b.WriteString(strings.Join(proj, " ") + " WHERE " + where)
	for n, i := g.pick(3), 0; i < n; i++ {
		if i == 0 {
			b.WriteString(" ORDER BY")
		}
		var v string
		if len(proj) > 0 {
			v = proj[g.pick(len(proj))]
		} else {
			v = g.variable()
		}
		if g.pick(2) == 1 {
			v = "DESC(" + v + ")"
		}
		b.WriteString(" " + v)
	}
	if off := g.pick(4); off > 0 {
		fmt.Fprintf(&b, " OFFSET %d", off)
	}
	if lim := g.pick(7) - 1; lim >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", lim)
	}
	return b.String()
}

// querySeeds are FuzzSPARQLQuery's seed inputs: each decodes to one case
// of TestExecutorParityWithSeedSemantics (TestQuerySeedsAreParityCases
// checks that it still does).
var querySeeds = []struct {
	choices []byte
	parity  string
}{
	{[]byte{0, 1, 0, 0, 2, 1, 0, 1, 0, 1, 3, 0, 2, 0, 3},
		`SELECT ?x ?d WHERE { ?x s:isA ?c . OPTIONAL { ?x s:dangerLevel ?d } }`},
	{[]byte{0, 0, 1, 1, 1, 0, 0, 13, 0, 1, 0, 1, 16, 0, 1, 0},
		`SELECT ?x WHERE { { ?x s:isA s:PreciousMetal } UNION { ?x s:dangerLevel "high" } }`},
	{[]byte{0, 1, 0, 2, 4, 1, 2, 0, 4, 4, 19, 1, 0},
		`SELECT ?x WHERE { ?x s:weight ?w . FILTER (?w > 200) }`},
	{[]byte{1, 1, 8, 6, 6, 0, 1, 6},
		`SELECT DISTINCT ?z WHERE { ?site s:zone ?z }`},
	{[]byte{0, 1, 8, 5, 5, 0, 2, 8, 5, 1, 1, 0, 3, 5},
		`SELECT ?site ?r WHERE { ?site s:rank ?r } ORDER BY ?r OFFSET 3 LIMIT 4`},
	{[]byte{1, 1, 8, 5, 5, 0, 1, 5, 1, 0, 1, 0, 4},
		`SELECT DISTINCT ?r WHERE { ?site s:rank ?r } ORDER BY DESC(?r) LIMIT 3`},
	{[]byte{0, 1, 8, 5, 5, 2, 0, 1, 8, 7, 7, 0, 2, 2, 1, 7, 1, 8},
		`SELECT ?site WHERE { ?site s:rank ?r . OPTIONAL { ?site s:audited ?a } FILTER (!BOUND(?a)) }`},
	{[]byte{0, 1, 0, 1, 3, 1, 2, 5, 0, 3, 0, 16, 1, 5, 4, 0, 0, 0, 3, 1, 17, 1, 0},
		`SELECT ?x WHERE { ?x s:dangerLevel ?d . FILTER (?d = "high" || ISIRI(?x) && ?d != "low") }`},
	{[]byte{0, 1, 8, 5, 5, 1, 2, 0, 5, 2, 21, 2, 8, 5},
		`SELECT ?site ?r WHERE { ?site s:rank ?r . FILTER (?r < "6") }`},
	{[]byte{0, 1, 0, 12, 4, 0, 2, 0, 4, 1, 1, 0},
		`SELECT ?x ?w WHERE { ?x ?p ?w } ORDER BY ?w`},
	{[]byte{1, 1, 0, 12, 4, 0, 1, 4, 1, 0, 1, 0, 6},
		`SELECT DISTINCT ?w WHERE { ?x ?p ?w } ORDER BY DESC(?w) LIMIT 5`},
}

// TestQuerySeedsAreParityCases pins that each seed of FuzzSPARQLQuery
// still decodes to the parity case it stands for.
func TestQuerySeedsAreParityCases(t *testing.T) {
	pre := `PREFIX s: <` + sparql.Onto + `> `
	for _, s := range querySeeds {
		text := queryGen{bytePicker(s.choices)}.query()
		got, err := sparql.Parse(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		want, err := sparql.Parse(pre + s.parity)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("seed %v decodes to\n%s\nwant\n%s", s.choices, got, want)
		}
	}
}

// checkQuery compares the executor with the oracle on text over st at
// Parallelism 1, 2 and 4. The solutions must be the oracle's as a
// multiset. Where ORDER BY leaves ties, or OFFSET / LIMIT cuts through
// an unordered answer, the executor may pick other rows than the oracle:
// then the count must match, every row must come from the unwindowed
// answer, and under ORDER BY the sequence of sort keys must equal the
// oracle's.
func checkQuery(t *testing.T, st *sparql.Fixture, text string) {
	t.Helper()
	q, err := sparql.Parse(text)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	ref, err := oracle.SPARQL(st.Triples(), q)
	if err != nil {
		t.Fatalf("%s: oracle: %v", text, err)
	}
	unwindowed := *q
	unwindowed.Offset, unwindowed.Limit = 0, -1
	full, err := oracle.SPARQL(st.Triples(), &unwindowed)
	if err != nil {
		t.Fatalf("%s: oracle: %v", text, err)
	}
	windowed := q.Offset > 0 || q.Limit >= 0
	var keys []string
	for _, k := range q.Order {
		keys = append(keys, k.Var)
	}
	for _, opts := range []sparql.Options{{Parallelism: 1}, {Parallelism: 2}, {Parallelism: 4}} {
		res, err := sparql.CompileEval(st, q, opts)
		if err != nil {
			t.Fatalf("%s (opts=%+v): %v", text, opts, err)
		}
		if !reflect.DeepEqual(res.Vars, ref.Vars) {
			t.Fatalf("%s (opts=%+v): vars %v, oracle %v", text, opts, res.Vars, ref.Vars)
		}
		got := sparql.RenderBindings(res.Bindings, res.Vars)
		if !windowed {
			if want := sparql.RenderBindings(ref.Bindings, ref.Vars); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s (opts=%+v):\n got %v\nwant %v", text, opts, got, want)
			}
		} else {
			if len(got) != len(ref.Bindings) {
				t.Fatalf("%s (opts=%+v): %d solutions, oracle %d", text, opts, len(got), len(ref.Bindings))
			}
			pool := map[string]int{}
			for _, s := range sparql.RenderBindings(full.Bindings, full.Vars) {
				pool[s]++
			}
			for _, s := range got {
				if pool[s]--; pool[s] < 0 {
					t.Fatalf("%s (opts=%+v): solution %q is not in the unwindowed answer", text, opts, s)
				}
			}
		}
		if len(keys) > 0 {
			if g, w := sparql.RenderSeq(res.Bindings, keys), sparql.RenderSeq(ref.Bindings, keys); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s (opts=%+v): sort keys\n got %v\nwant %v", text, opts, g, w)
			}
		}
	}
}

// FuzzSPARQLQuery decodes arbitrary bytes into a SELECT over parityStore
// (queryGen's format) and checks it with checkQuery. Generated queries
// always parse and evaluate, so an error fails the input as a mismatch
// does.
func FuzzSPARQLQuery(f *testing.F) {
	for _, s := range querySeeds {
		f.Add(s.choices)
	}
	st := parityStore()
	f.Fuzz(func(t *testing.T, data []byte) {
		sparql.ForceParallel(t)
		checkQuery(t, st, queryGen{bytePicker(data)}.query())
	})
}
