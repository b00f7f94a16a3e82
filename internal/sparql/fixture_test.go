package sparql

import (
	"fmt"
	"testing"

	"crosse/internal/rdf"
)

// fixture is a test graph built the way production builds one: a user's
// View over an arena that also holds a decoy neighbour view. For every
// triple (s, p, o) the fixture adds, the neighbour alone believes
// (s, p, decoy) and (decoy, p, o), so a query that read past the view
// into the arena would return values no expected result contains. Every
// suite that evaluates a fixture therefore also checks that nothing leaks
// across views.
type fixture struct {
	*rdf.View
	arena     *rdf.SharedStore
	neighbour *rdf.View
	// triples is what the view holds, in insertion order: the term-level
	// oracle (internal/oracle) and the brute-force checks read it, never
	// the graph under test.
	triples []rdf.Triple
}

func newFixture() *fixture {
	arena := rdf.NewSharedStore()
	return &fixture{View: arena.NewView(), arena: arena, neighbour: arena.NewView()}
}

// Add puts t into the view, and two decoys that mention t's terms into the
// neighbour. It reports whether t was new to the view.
func (f *fixture) Add(t rdf.Triple) bool {
	k := f.arena.AcquireTriple(t)
	if !f.View.Add(k) {
		f.arena.Release(k)
		return false
	}
	f.triples = append(f.triples, t)
	n := len(f.triples)
	for _, d := range []rdf.Triple{
		{S: t.S, P: t.P, O: rdf.NewIRI(fmt.Sprintf("urn:decoy:o%d", n))},
		{S: rdf.NewIRI(fmt.Sprintf("urn:decoy:s%d", n)), P: t.P, O: t.O},
	} {
		f.neighbour.Add(f.arena.AcquireTriple(d))
	}
	return true
}

// renderSeq renders bindings in result order (no sorting) for exact
// order-sensitive comparison.
func renderSeq(bs []Binding, vars []string) []string {
	out := make([]string, 0, len(bs))
	for _, b := range bs {
		s := ""
		for _, v := range vars {
			if t, ok := b[v]; ok {
				s += t.String() + ";"
			} else {
				s += "_;"
			}
		}
		out = append(out, s)
	}
	return out
}

// compileEval compiles q and evaluates it against g with options.
func compileEval(g rdf.Graph, q *Query, o Options) (*Result, error) {
	p, err := Compile(q)
	if err != nil {
		return nil, err
	}
	return p.EvalOpts(g, o)
}

// forceParallel drops the parallel-path thresholds so the small parity
// fixtures split into many morsels and exercise the scheduler, restoring
// the production values on cleanup.
func forceParallel(t *testing.T) {
	t.Helper()
	minM, morsel := parMinMatches, parMorselMatches
	parMinMatches, parMorselMatches = 1, 5
	t.Cleanup(func() { parMinMatches, parMorselMatches = minM, morsel })
}

// TestFixtureDecoysAreVisibleOutsideTheView pins that the decoys can
// catch a leak: the same query over the arena (the union of both views)
// returns them, over the view it does not.
func TestFixtureDecoysAreVisibleOutsideTheView(t *testing.T) {
	st := sampleStore()
	q := `PREFIX s: <` + onto + `> SELECT ?x ?c WHERE { ?x s:isA ?c }`
	inView, err := Eval(st, q)
	if err != nil {
		t.Fatal(err)
	}
	inArena, err := Eval(st.arena, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(inView.Bindings) != 4 || len(inArena.Bindings) != 3*4 {
		t.Fatalf("view answers %d solutions, arena %d: want 4 and 12", len(inView.Bindings), len(inArena.Bindings))
	}
}
