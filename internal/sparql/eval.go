package sparql

// eval.go — the public result model and the term-level helpers shared by
// the compiled executor (exec.go). Evaluation itself is ID-native: Eval
// compiles the query into a Plan (plan.go), which runs as a streaming
// pipeline over dictionary-ID rows; the map-based Binding form below is
// collected from that stream, for tools and tests.

import (
	"cmp"
	"fmt"
	"math"
	"strconv"

	"crosse/internal/rdf"
)

// Binding maps variable names to the RDF terms they are bound to in one
// solution.
type Binding map[string]rdf.Term

// Result is the outcome of query evaluation.
type Result struct {
	// Vars is the projected variable list in order.
	Vars []string
	// Bindings holds one Binding per solution (SELECT).
	Bindings []Binding
	// Bool is the ASK outcome.
	Bool bool
	// ParallelFallback is empty when evaluation ran on the morsel-driven
	// parallel path (parallel.go) and otherwise names why it fell back to
	// the serial pipeline — "parallelism=1", "ask query", "driving pattern
	// below parallel threshold", and so on.
	ParallelFallback string
}

// collectVars gathers the variables a SELECT * projects: every variable
// appearing in a triple pattern position, in first-appearance order.
func collectVars(g *Group, out *[]string, seen map[string]struct{}) {
	addVar := func(name string) {
		if name == "" {
			return
		}
		if _, ok := seen[name]; !ok {
			seen[name] = struct{}{}
			*out = append(*out, name)
		}
	}
	for _, e := range g.Elems {
		switch el := e.(type) {
		case TriplePattern:
			addVar(el.S.Var)
			if pv, ok := el.P.(PathVar); ok {
				addVar(pv.Name)
			}
			addVar(el.O.Var)
		case Optional:
			collectVars(el.Group, out, seen)
		case Union:
			collectVars(el.Left, out, seen)
			collectVars(el.Right, out, seen)
		}
	}
}

// errUnbound marks evaluation over an unbound variable; SPARQL semantics
// make the enclosing filter an error → solution dropped.
var errUnbound = fmt.Errorf("sparql: unbound variable in expression")

func boolTerm(b bool) rdf.Term {
	if b {
		return rdf.NewTypedLiteral("true", rdf.XSDBoolean)
	}
	return rdf.NewTypedLiteral("false", rdf.XSDBoolean)
}

func isTrue(t rdf.Term) bool {
	return t.IsLiteral() && t.Datatype == rdf.XSDBoolean && t.Value == "true"
}

// compareTerms orders two terms. The order is total: unbound (zero) terms
// first, then IRIs, literals and blank nodes. Among literals the numeric
// ones (xsd:integer or xsd:double that parse) form one block before every
// other literal, ordered by value with NaN last and equal to NaN; every
// other pair compares by rdf.Term.Compare (lexical form, then datatype).
// FILTER comparisons and ORDER BY (which decodes each key once, see
// emitSorted) share this one rule through compareKeys.
func compareTerms(a, b rdf.Term) int { return compareKeys(keyOf(a), keyOf(b)) }

// sortKey is a term decoded for comparison: whether it is unbound, and
// the number a numeric literal parses to.
type sortKey struct {
	t     rdf.Term
	num   float64
	isNum bool
	zero  bool
}

func keyOf(t rdf.Term) sortKey {
	k := sortKey{t: t, zero: t.IsZero()}
	if t.IsLiteral() {
		k.num, k.isNum = parseNum(t)
	}
	return k
}

// compareKeys is compareTerms over decoded keys.
func compareKeys(a, b sortKey) int {
	if a.zero || b.zero {
		switch {
		case a.zero && b.zero:
			return 0
		case a.zero:
			return -1
		default:
			return 1
		}
	}
	switch {
	case a.isNum && b.isNum:
		if an, bn := math.IsNaN(a.num), math.IsNaN(b.num); an || bn {
			return cmp.Compare(b2i(an), b2i(bn))
		}
		return cmp.Compare(a.num, b.num)
	case a.isNum && b.t.IsLiteral():
		return -1
	case b.isNum && a.t.IsLiteral():
		return 1
	}
	return a.t.Compare(b.t)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func parseNum(t rdf.Term) (float64, bool) {
	if t.Datatype == rdf.XSDInteger || t.Datatype == rdf.XSDDouble {
		f, err := strconv.ParseFloat(t.Value, 64)
		return f, err == nil
	}
	return 0, false
}
