package sparql_test

// path_test.go — property paths against hand-computed answers and against
// the term-level oracle (internal/oracle): two SPARQL 1.1 §18.5 corners
// pinned by hand, random paths over random cyclic graphs, and the fuzz
// target that drives the same comparison from arbitrary bytes.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"crosse/internal/oracle"
	"crosse/internal/rdf"
	"crosse/internal/sparql"
)

// pathAnswers evaluates src over st and renders its solutions sorted, with
// the Onto prefix stripped from IRIs.
func pathAnswers(t *testing.T, st *sparql.Fixture, src string) []string {
	t.Helper()
	r, err := sparql.Eval(st, `PREFIX s: <`+sparql.Onto+`> `+src)
	if err != nil {
		t.Fatal(err)
	}
	if r.Vars == nil {
		return []string{fmt.Sprint(r.Bool)}
	}
	return strings.Split(strings.ReplaceAll(strings.Join(sparql.RenderBindings(r.Bindings, r.Vars), " "), "<"+sparql.Onto, "<"), " ")
}

// TestClosurePlusReachesStartThroughCycle: p+ matches a path of length
// one or more, so a start on a cycle (or a self-loop) reaches itself.
func TestClosurePlusReachesStartThroughCycle(t *testing.T) {
	st := sparql.NewFixture()
	a, b, c, next := sparql.IRI("a"), sparql.IRI("b"), sparql.IRI("c"), sparql.IRI("next")
	st.Add(rdf.Triple{S: a, P: next, O: b})
	st.Add(rdf.Triple{S: b, P: next, O: a})
	st.Add(rdf.Triple{S: c, P: next, O: c})
	for src, want := range map[string][]string{
		`SELECT ?x WHERE { s:a s:next+ ?x }`:  {"<a>;", "<b>;"},
		`SELECT ?x WHERE { ?x s:next+ s:a }`:  {"<a>;", "<b>;"},
		`SELECT ?x WHERE { s:c s:next+ ?x }`:  {"<c>;"},
		`SELECT ?x WHERE { ?x s:next+ ?x }`:   {"<a>;", "<b>;", "<c>;"},
		`SELECT ?x WHERE { s:a ^s:next+ ?x }`: {"<a>;", "<b>;"},
		`ASK { s:a s:next+ s:a }`:             {"true"},
		`ASK { s:c s:next+ s:c }`:             {"true"},
		`ASK { s:a s:next+ s:c }`:             {"false"},
	} {
		if got := pathAnswers(t, st, src); !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %v\nwant %v", src, got, want)
		}
	}
}

// TestZeroLengthPathsPairEveryNode: with both ends open, p* and p? pair
// every node of the view with itself — nodes(G) holds objects, literals
// among them, not just subjects — and nothing outside the view.
func TestZeroLengthPathsPairEveryNode(t *testing.T) {
	st := sparql.NewFixture()
	st.Add(rdf.Triple{S: sparql.IRI("a"), P: sparql.IRI("next"), O: sparql.IRI("b")})
	st.Add(rdf.Triple{S: sparql.IRI("c"), P: sparql.IRI("label"), O: rdf.NewLiteral("x")})
	want := []string{`"x";"x";`, "<a>;<a>;", "<a>;<b>;", "<b>;<b>;", "<c>;<c>;"}
	for _, src := range []string{
		`SELECT ?x ?y WHERE { ?x s:next* ?y }`,
		`SELECT ?x ?y WHERE { ?x s:next? ?y }`,
	} {
		if got := pathAnswers(t, st, src); !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %v\nwant %v", src, got, want)
		}
	}
}

// pathCase is one property-path query over a small graph.
type pathCase struct {
	triples []rdf.Triple
	query   string
}

// pathForms are the shapes a generated path step takes; P and Q stand for
// two operand steps drawn the same way, one level shallower.
var pathForms = []string{"s:p", "s:q", "^P", "P/Q", "P|Q", "P+", "P*", "P?", "(P/Q*)+", "^P+"}

// genPathCase builds a pathCase from a stream of choices: pick(n) returns
// a value in [0, n). The graph has up to 16 edges over six nodes and two
// predicates, so cycles and self-loops are common, and an object may be a
// literal. The path nests pathForms one to three deep. Each end is its own
// variable, ?x (the same variable on both ends), a term the graph has
// never seen, or a node of the graph. FuzzSPARQLPath feeds pick from its
// input bytes, so the order of the picks below is the fuzz input format.
func genPathCase(pick func(n int) int) pathCase {
	node := func() rdf.Term { return sparql.IRI(fmt.Sprintf("n%d", pick(6))) }
	var c pathCase
	for i, n := 0, 1+pick(16); i < n; i++ {
		s, p, o := node(), sparql.IRI([]string{"p", "q"}[pick(2)]), node()
		if pick(8) == 0 {
			o = rdf.NewLiteral("lit")
		}
		c.triples = append(c.triples, rdf.Triple{S: s, P: p, O: o})
	}
	var path func(depth int) string
	path = func(depth int) string {
		if depth == 0 {
			return pathForms[pick(2)]
		}
		form := pathForms[pick(len(pathForms))]
		l, r := path(depth-1), path(depth-1)
		if !strings.ContainsAny(form, "PQ") {
			return form
		}
		return "(" + strings.NewReplacer("P", l, "Q", r).Replace(form) + ")"
	}
	step := path(1 + pick(3))
	end := func(v string) string {
		switch pick(5) {
		case 0:
			return v
		case 1:
			return "?x"
		case 2:
			return "s:missing"
		default:
			return fmt.Sprintf("s:n%d", pick(6))
		}
	}
	s := end("?x")
	c.query = `PREFIX s: <` + sparql.Onto + `> SELECT * WHERE { ` + s + " " + step + " " + end("?y") + " }"
	return c
}

// bytePicker replays genPathCase's choices from data: each pick consumes
// one byte, modulo its range, and an exhausted input picks 0.
func bytePicker(data []byte) func(n int) int {
	return func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % n
	}
}

// pathSweep is the parity test's fixed half, in genPathCase's byte format:
// every one-level form of pathForms under every combination of bound and
// unbound ends, over the cycle n0 →p n1 →p n2 →p n0, the edge n2 →q n3,
// the self-loop n3 →q n3 and the literal edge n3 →p "lit". These inputs
// also seed FuzzSPARQLPath.
func pathSweep() [][]byte {
	graph := []byte{5, // six edges, each (s, p, o, 0 for a literal object)
		0, 0, 1, 1, 1, 0, 2, 1, 2, 0, 0, 1, 2, 1, 3, 1, 3, 1, 3, 1, 3, 0, 0, 0}
	subj := [][]byte{{0}, {2}, {3, 0}}     // ?x, never seen, n0
	obj := [][]byte{{0}, {1}, {2}, {3, 2}} // ?y, ?x again, never seen, n2
	var out [][]byte
	for form := range pathForms {
		for _, s := range subj {
			for _, o := range obj {
				// Depth 1, the form, then s:p and s:q as its operands.
				out = append(out, slices.Concat(graph, []byte{0, byte(form), 0, 1}, s, o))
			}
		}
	}
	return out
}

// checkPathCase compares the executor with the oracle on c, serially
// and on the morsel path at several widths, and the ASK form with both.
func checkPathCase(t *testing.T, c pathCase) {
	t.Helper()
	st := sparql.NewFixture()
	for _, tr := range c.triples {
		st.Add(tr)
	}
	q, err := sparql.Parse(c.query)
	if err != nil {
		t.Fatalf("%s: %v", c.query, err)
	}
	ref, err := oracle.SPARQL(st.Triples(), q)
	if err != nil {
		t.Fatal(err)
	}
	want := sparql.RenderBindings(ref.Bindings, ref.Vars)
	for _, opts := range []sparql.Options{{Parallelism: 1}, {Parallelism: 2}, {Parallelism: 4}} {
		res, err := sparql.CompileEval(st, q, opts)
		if err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		if got := sparql.RenderBindings(res.Bindings, res.Vars); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s over %v (opts=%+v):\n got %v\nwant %v", c.query, c.triples, opts, got, want)
		}
	}
	ask, err := sparql.Parse(strings.Replace(c.query, "SELECT * WHERE", "ASK", 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sparql.CompileEval(st, ask, sparql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bool != (len(want) > 0) {
		t.Fatalf("ASK form of %s: got %v with %d oracle solutions", c.query, res.Bool, len(want))
	}
}

// TestRandomPropertyPathsVsReference: the executor agrees with the
// term-level oracle on the fixed sweep and on random nested paths over
// random graphs with cycles and self-loops, with the parallel path forced.
func TestRandomPropertyPathsVsReference(t *testing.T) {
	sparql.ForceParallel(t)
	for _, in := range pathSweep() {
		checkPathCase(t, genPathCase(bytePicker(in)))
	}
	rng := rand.New(rand.NewSource(39))
	for trial := 0; trial < 300; trial++ {
		checkPathCase(t, genPathCase(rng.Intn))
	}
}

// FuzzSPARQLPath decodes arbitrary bytes into a graph, a path and its ends
// (genPathCase's format) and requires the executor to answer exactly what
// the oracle answers. Generated queries always parse and evaluate, so
// an error fails the input as a mismatch does.
func FuzzSPARQLPath(f *testing.F) {
	for _, in := range pathSweep() {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sparql.ForceParallel(t)
		checkPathCase(t, genPathCase(bytePicker(data)))
	})
}
