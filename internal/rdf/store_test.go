package rdf

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func iri(s string) Term { return NewIRI("http://smartground.eu/" + s) }

func tr(s, p, o string) Triple { return Triple{iri(s), iri(p), iri(o)} }

// namedGraph is one Graph implementation under test.
type namedGraph struct {
	name string
	g    Graph
}

// graphsOf returns both Graph implementations holding exactly ts: an arena
// holding only ts, and a view over an arena that also holds triples only a
// neighbour view believes (same subject and predicate as each of ts, and a
// fresh object), so a read that leaked past the view would see them.
func graphsOf(ts []Triple) []namedGraph {
	arena := NewSharedStore()
	for _, t := range ts {
		arena.AcquireTriple(t)
	}
	shared := NewSharedStore()
	v, neighbour := shared.NewView(), shared.NewView()
	for i, t := range ts {
		v.Add(shared.AcquireTriple(t))
		neighbour.Add(shared.AcquireTriple(Triple{t.S, t.P, NewIRI(fmt.Sprintf("http://x/decoy%d", i))}))
	}
	return []namedGraph{{"arena", arena}, {"view", v}}
}

// countIDs is CountIDs in a read transaction of its own.
func countIDs(g Graph, p PatternIDs) (n int) {
	g.ReadIDs(func(r IDReader) { n = r.CountIDs(p) })
	return n
}

// idOf is IDOf in a read transaction of its own.
func idOf(g Graph, t Term) (id TermID, ok bool) {
	g.ReadIDs(func(r IDReader) { id, ok = r.IDOf(t) })
	return id, ok
}

// naive filters ts through Pattern.Matches, sorted.
func naive(ts []Triple, p Pattern) []Triple {
	var out []Triple
	for _, t := range ts {
		if p.Matches(t) {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// TestMatchAllShapes checks the term-level package functions shape by
// shape on the arena and on a view: all eight pattern shapes, a never
// interned term in each position, and a stop after the first triple.
func TestMatchAllShapes(t *testing.T) {
	triples := []Triple{
		tr("Hg", "is-a", "element"),
		tr("Hg", "dangerLevel", "high"),
		tr("Pb", "is-a", "element"),
		tr("Pb", "dangerLevel", "high"),
		tr("Au", "is-a", "element"),
		tr("Au", "dangerLevel", "low"),
	}
	cases := []struct {
		name string
		p    Pattern
		want int
	}{
		{"???", Pattern{}, 6},
		{"S??", Pattern{S: iri("Hg")}, 2},
		{"?P?", Pattern{P: iri("is-a")}, 3},
		{"??O", Pattern{O: iri("high")}, 2},
		{"SP?", Pattern{S: iri("Hg"), P: iri("dangerLevel")}, 1},
		{"?PO", Pattern{P: iri("dangerLevel"), O: iri("high")}, 2},
		{"S?O", Pattern{S: iri("Au"), O: iri("low")}, 1},
		{"SPO hit", Pattern{S: iri("Au"), P: iri("is-a"), O: iri("element")}, 1},
		{"SPO miss", Pattern{S: iri("Au"), P: iri("is-a"), O: iri("mineral")}, 0},
		{"unknown S", Pattern{S: iri("never")}, 0},
		{"unknown P", Pattern{S: iri("Hg"), P: iri("never")}, 0},
		{"unknown O", Pattern{P: iri("is-a"), O: NewLiteral("never")}, 0},
	}
	for _, ng := range graphsOf(triples) {
		for _, c := range cases {
			got := MatchSorted(ng.g, c.p)
			if len(got) != c.want || !reflect.DeepEqual(got, naive(triples, c.p)) {
				t.Errorf("%s %s: MatchSorted = %v, want %d matches", ng.name, c.name, got, c.want)
			}
			if n := Count(ng.g, c.p); n != c.want {
				t.Errorf("%s %s: Count = %d, want %d", ng.name, c.name, n, c.want)
			}
			visited := 0
			ForEach(ng.g, c.p, func(Triple) bool {
				visited++
				return false
			})
			if want := min(c.want, 1); visited != want {
				t.Errorf("%s %s: ForEach stopping at once visited %d, want %d", ng.name, c.name, visited, want)
			}
		}
	}
}

func TestForEachEarlyStop(t *testing.T) {
	var ts []Triple
	for i := 0; i < 100; i++ {
		ts = append(ts, tr(fmt.Sprintf("s%d", i), "p", "o"))
	}
	for _, ng := range graphsOf(ts) {
		n := 0
		ForEach(ng.g, Pattern{P: iri("p")}, func(Triple) bool {
			n++
			return n < 10
		})
		if n != 10 {
			t.Errorf("%s: early stop visited %d, want 10", ng.name, n)
		}
	}
}

func TestSubjectsObjects(t *testing.T) {
	ts := []Triple{
		tr("Hg", "is-a", "HazardousWaste"),
		tr("Pb", "is-a", "HazardousWaste"),
		tr("Hg", "foundWith", "Pb"),
		tr("Hg", "foundWith", "Zn"),
	}
	for _, ng := range graphsOf(ts) {
		subs := Subjects(ng.g, iri("is-a"), iri("HazardousWaste"))
		if len(subs) != 2 {
			t.Errorf("%s: Subjects: got %d, want 2", ng.name, len(subs))
		}
		objs := Objects(ng.g, iri("Hg"), iri("foundWith"))
		if len(objs) != 2 {
			t.Errorf("%s: Objects: got %d, want 2", ng.name, len(objs))
		}
		if got := Objects(ng.g, iri("never"), iri("foundWith")); len(got) != 0 {
			t.Errorf("%s: Objects of an unknown subject = %v", ng.name, got)
		}
	}
}

func TestMatchSortedDeterministic(t *testing.T) {
	st := NewSharedStore()
	for i := 0; i < 50; i++ {
		st.AcquireTriple(tr(fmt.Sprintf("s%02d", i), "p", "o"))
	}
	// Mixed kinds exercise the kind-major ordering of Triple.Compare.
	st.AcquireTriple(Triple{NewBlank("b"), iri("p"), NewLiteral("lit")})
	a := MatchSorted(st, Pattern{})
	b := MatchSorted(st, Pattern{})
	if !reflect.DeepEqual(a, b) {
		t.Error("MatchSorted must be deterministic")
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i].Compare(a[j]) < 0 }) {
		t.Error("MatchSorted must be sorted by Triple.Compare")
	}
}

func TestTermCompare(t *testing.T) {
	cases := []struct {
		a, b Term
		want int
	}{
		{iri("a"), iri("a"), 0},
		{iri("a"), iri("b"), -1},
		{iri("b"), iri("a"), 1},
		{NewIRI("x"), NewLiteral("x"), -1},                      // IRI < Literal
		{NewLiteral("x"), NewBlank("x"), -1},                    // Literal < Blank
		{NewLiteral("1"), NewTypedLiteral("1", XSDInteger), -1}, // datatype tiebreak
		{Term{}, NewIRI("a"), -1},                               // zero term sorts first
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := c.b.Compare(c.a); got != -c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d (antisymmetry)", c.b, c.a, got, -c.want)
		}
	}
}

// Property: for random graphs and random patterns, index-driven matching
// on the arena and on a view equals a naive scan filter.
func TestMatchEqualsNaiveScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	names := []string{"a", "b", "c", "d"}
	randTerm := func() Term { return iri(names[rng.Intn(len(names))]) }
	for iter := 0; iter < 200; iter++ {
		seen := map[Triple]bool{}
		var all []Triple
		for i := 0; i < 30; i++ {
			t3 := Triple{randTerm(), randTerm(), randTerm()}
			if !seen[t3] {
				seen[t3] = true
				all = append(all, t3)
			}
		}
		var p Pattern
		if rng.Intn(2) == 0 {
			p.S = randTerm()
		}
		if rng.Intn(2) == 0 {
			p.P = randTerm()
		}
		if rng.Intn(2) == 0 {
			p.O = randTerm()
		}
		want := naive(all, p)
		for _, ng := range graphsOf(all) {
			if got := MatchSorted(ng.g, p); !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d %s: pattern %v: naive %v != indexed %v", iter, ng.name, p, want, got)
			}
		}
	}
}

// Property: acquiring then releasing random triple sets leaves the arena
// empty, and all three indexes agree at each step (observed via the three
// match shapes).
func TestAddRemoveRoundTrip(t *testing.T) {
	f := func(seeds []uint8) bool {
		st := NewSharedStore()
		var keys []TripleKey
		var ts []Triple
		for _, s := range seeds {
			t3 := tr(fmt.Sprintf("s%d", s%5), fmt.Sprintf("p%d", (s/5)%3), fmt.Sprintf("o%d", (s/15)%4))
			keys = append(keys, st.AcquireTriple(t3))
			ts = append(ts, t3)
		}
		has := func(p Pattern, t3 Triple) bool {
			found := false
			ForEach(st, p, func(m Triple) bool {
				found = m == t3
				return !found
			})
			return found
		}
		for _, t3 := range ts {
			// Each index route must agree on membership.
			if !has(t3.pattern(), t3) || !has(Pattern{P: t3.P, O: t3.O}, t3) || !has(Pattern{S: t3.S, O: t3.O}, t3) {
				return false
			}
		}
		for _, k := range keys {
			st.Release(k)
		}
		return st.Len() == 0 && Count(st, Pattern{}) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestConcurrentAccess races arena writers against the term-level reads.
// Run with -race.
func TestConcurrentAccess(t *testing.T) {
	st := NewSharedStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				st.AcquireTriple(tr(fmt.Sprintf("s%d-%d", g, i), "p", "o"))
				ForEach(st, Pattern{P: iri("p")}, func(Triple) bool { return true })
				Count(st, Pattern{S: iri(fmt.Sprintf("s%d-%d", g, i))})
			}
		}(g)
	}
	wg.Wait()
	if st.Len() != 8*200 {
		t.Errorf("Len = %d, want %d", st.Len(), 8*200)
	}
}

func TestTermString(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{NewIRI("http://x/y"), "<http://x/y>"},
		{NewBlank("b1"), "_:b1"},
		{NewLiteral("hi"), `"hi"`},
		{NewLiteral(`say "hi"` + "\n"), `"say \"hi\"\n"`},
		{NewTypedLiteral("4", XSDInteger), `"4"^^<` + XSDInteger + `>`},
		{NewTypedLiteral("s", XSDString), `"s"`},
	}
	for _, c := range cases {
		if got := c.term.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestPatternString(t *testing.T) {
	p := Pattern{S: iri("a")}
	if got := p.String(); !strings.Contains(got, "?") || !strings.Contains(got, "a") {
		t.Errorf("Pattern.String() = %q", got)
	}
}
