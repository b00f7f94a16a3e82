package sparql

import (
	"fmt"
	"testing"

	"crosse/internal/rdf"
)

// headStep activates q's root group over g as evaluation does and returns
// the pattern the greedy order starts from.
func headStep(t *testing.T, g rdf.Graph, q string) *patternPlan {
	t.Helper()
	parsed, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(parsed)
	if err != nil {
		t.Fatal(err)
	}
	var head *patternPlan
	g.ReadIDs(func(r rdf.IDReader) {
		e := &exec{
			p:       p,
			r:       r,
			row:     make([]rdf.TermID, len(p.slotNames)),
			boundEp: make([]uint32, len(p.slotNames)),
			groups:  make([]groupState, p.ngroups),
		}
		e.resolveConsts()
		e.initGroup(p.root)
		gs := &e.groups[p.root.id]
		e.activate(gs)
		head = gs.head.pp
	})
	return head
}

// A property path is priced by the plain IRI step every pair of it begins
// with, not as the whole graph: ?x isA/sub* ?c has one pair per isA edge
// and drives the join, where ?x level ?l has a row per element. A path
// that may take zero steps pairs every node with itself, so its first
// step bounds nothing and the plain pattern keeps the head.
func TestPathStepPricedByLeadingStep(t *testing.T) {
	const ns = "http://x/"
	st := rdf.NewSharedStore()
	for i := 0; i < 1000; i++ {
		s := rdf.NewIRI(fmt.Sprintf("%selem%d", ns, i))
		if i%10 == 0 {
			st.AcquireTriple(rdf.Triple{S: s, P: rdf.NewIRI(ns + "isA"), O: rdf.NewIRI(ns + "class0")})
		}
		st.AcquireTriple(rdf.Triple{S: s, P: rdf.NewIRI(ns + "level"), O: rdf.NewLiteral(fmt.Sprint(i % 10))})
	}
	for i := 0; i < 60; i++ {
		st.AcquireTriple(rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("%sclass%d", ns, i)),
			P: rdf.NewIRI(ns + "sub"),
			O: rdf.NewIRI(fmt.Sprintf("%sclass%d", ns, i+1)),
		})
	}
	for _, tc := range []struct {
		path     string
		pathHead bool
	}{
		{`<` + ns + `isA>/<` + ns + `sub>*`, true},
		{`<` + ns + `isA>+`, true},
		{`(<` + ns + `isA>/<` + ns + `sub>)+`, true},
		{`<` + ns + `sub>*/<` + ns + `isA>`, false},
		{`(<` + ns + `isA>|<` + ns + `sub>)`, false},
	} {
		q := `SELECT ?x ?c ?l WHERE { ?x ` + tc.path + ` ?c . ?x <` + ns + `level> ?l }`
		if head := headStep(t, st, q); (head.path != nil) != tc.pathHead {
			t.Errorf("%s: head is the path = %v, want %v", tc.path, head.path != nil, tc.pathHead)
		}
	}
}
