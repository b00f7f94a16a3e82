package sparql

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"crosse/internal/rdf"
)

// naiveBGP evaluates a two-pattern BGP by brute force over all triples.
func naiveBGP(st *fixture, p1, p2 TriplePattern) []Binding {
	all := st.triples
	match := func(tp TriplePattern, t rdf.Triple, b Binding) (Binding, bool) {
		nb := b.clone()
		bind := func(n NodePattern, term rdf.Term) bool {
			if !n.IsVar() {
				return n.Term == term
			}
			if old, ok := nb[n.Var]; ok {
				return old == term
			}
			nb[n.Var] = term
			return true
		}
		pi := tp.P.(PathIRI)
		if !bind(tp.S, t.S) || pi.IRI != t.P || !bind(tp.O, t.O) {
			return nil, false
		}
		return nb, true
	}
	var out []Binding
	for _, t1 := range all {
		b1, ok := match(p1, t1, Binding{})
		if !ok {
			continue
		}
		for _, t2 := range all {
			if b2, ok := match(p2, t2, b1); ok {
				out = append(out, b2)
			}
		}
	}
	return out
}

func renderBindings(bs []Binding, vars []string) []string {
	var out []string
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
	sort.Strings(out)
	return out
}

// Property: the engine's BGP join equals brute-force evaluation on random
// stores.
func TestBGPJoinEqualsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const ns = "http://x/"
	for trial := 0; trial < 60; trial++ {
		st := newFixture()
		for i := 0; i < 40; i++ {
			st.Add(rdf.Triple{
				S: rdf.NewIRI(fmt.Sprintf("%ss%d", ns, rng.Intn(6))),
				P: rdf.NewIRI(fmt.Sprintf("%sp%d", ns, rng.Intn(3))),
				O: rdf.NewIRI(fmt.Sprintf("%so%d", ns, rng.Intn(6))),
			})
		}
		p1 := TriplePattern{
			S: Variable("x"),
			P: PathIRI{IRI: rdf.NewIRI(fmt.Sprintf("%sp%d", ns, rng.Intn(3)))},
			O: Variable("y"),
		}
		p2 := TriplePattern{
			S: Variable("y"),
			P: PathIRI{IRI: rdf.NewIRI(fmt.Sprintf("%sp%d", ns, rng.Intn(3)))},
			O: Variable("z"),
		}
		want := renderBindings(naiveBGP(st, p1, p2), []string{"x", "y", "z"})

		q := &Query{
			Limit: -1,
			Vars:  []string{"x", "y", "z"},
			Where: &Group{Elems: []Element{p1, p2}},
		}
		res, err := compileEval(st, q, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := renderBindings(res.Bindings, []string{"x", "y", "z"}); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: engine %d, naive %d bindings", trial, len(got), len(want))
		}
	}
}

// Property: a BGP's answer does not depend on the order its patterns are
// written in. The planner breaks cost ties by source order, so the six
// orders of a 3-pattern BGP start from different heads and join in
// different orders; each must return the same multiset of solutions.
func TestBGPPermutationsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const ns = "http://x/"
	vars := []string{"x", "y", "z", "w"}
	for trial := 0; trial < 40; trial++ {
		st := newFixture()
		for i := 0; i < 40; i++ {
			st.Add(rdf.Triple{
				S: rdf.NewIRI(fmt.Sprintf("%sn%d", ns, rng.Intn(6))),
				P: rdf.NewIRI(fmt.Sprintf("%sp%d", ns, rng.Intn(3))),
				O: rdf.NewIRI(fmt.Sprintf("%sn%d", ns, rng.Intn(6))),
			})
		}
		node := func() NodePattern {
			if rng.Intn(5) == 0 {
				return Node(rdf.NewIRI(fmt.Sprintf("%sn%d", ns, rng.Intn(6))))
			}
			return Variable(vars[rng.Intn(len(vars))])
		}
		var ps [3]TriplePattern
		for i := range ps {
			ps[i] = TriplePattern{S: node(), P: PathIRI{IRI: rdf.NewIRI(fmt.Sprintf("%sp%d", ns, rng.Intn(3)))}, O: node()}
		}
		var want []string
		for i, perm := range [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
			q := &Query{Limit: -1, Vars: vars, Where: &Group{Elems: []Element{ps[perm[0]], ps[perm[1]], ps[perm[2]]}}}
			res, err := compileEval(st, q, Options{})
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			got := renderBindings(res.Bindings, vars)
			if i == 0 {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, order %v of %v: %d solutions, order [0 1 2] %d", trial, perm, ps, len(got), len(want))
			}
		}
	}
}

// Property: DISTINCT never increases and LIMIT truncates exactly.
func TestSolutionModifierProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	const ns = "http://x/"
	for trial := 0; trial < 30; trial++ {
		st := newFixture()
		for i := 0; i < 50; i++ {
			st.Add(rdf.Triple{
				S: rdf.NewIRI(fmt.Sprintf("%ss%d", ns, rng.Intn(8))),
				P: rdf.NewIRI(ns + "p"),
				O: rdf.NewIRI(fmt.Sprintf("%so%d", ns, rng.Intn(4))),
			})
		}
		all, err := Eval(st, `SELECT ?o WHERE { ?s <`+ns+`p> ?o }`)
		if err != nil {
			t.Fatal(err)
		}
		distinct, err := Eval(st, `SELECT DISTINCT ?o WHERE { ?s <`+ns+`p> ?o }`)
		if err != nil {
			t.Fatal(err)
		}
		if len(distinct.Bindings) > len(all.Bindings) || len(distinct.Bindings) > 4 {
			t.Fatalf("trial %d: distinct %d > all %d", trial, len(distinct.Bindings), len(all.Bindings))
		}
		k := 1 + rng.Intn(5)
		limited, err := Eval(st, fmt.Sprintf(`SELECT ?o WHERE { ?s <`+ns+`p> ?o } LIMIT %d`, k))
		if err != nil {
			t.Fatal(err)
		}
		want := k
		if len(all.Bindings) < k {
			want = len(all.Bindings)
		}
		if len(limited.Bindings) != want {
			t.Fatalf("trial %d: LIMIT %d returned %d", trial, k, len(limited.Bindings))
		}
	}
}

// Property: inverse path is the converse relation: (x ^p y) ≡ (y p x).
func TestInversePathConverse(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const ns = "http://x/"
	st := newFixture()
	for i := 0; i < 40; i++ {
		st.Add(rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("%ss%d", ns, rng.Intn(6))),
			P: rdf.NewIRI(ns + "p"),
			O: rdf.NewIRI(fmt.Sprintf("%so%d", ns, rng.Intn(6))),
		})
	}
	fwd, err := Eval(st, `SELECT ?a ?b WHERE { ?a <`+ns+`p> ?b }`)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := Eval(st, `SELECT ?a ?b WHERE { ?b ^<`+ns+`p> ?a }`)
	if err != nil {
		t.Fatal(err)
	}
	f := renderBindings(fwd.Bindings, []string{"a", "b"})
	g := renderBindings(inv.Bindings, []string{"a", "b"})
	if !reflect.DeepEqual(f, g) {
		t.Fatalf("inverse mismatch: %d vs %d", len(f), len(g))
	}
}
