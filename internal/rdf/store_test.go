package rdf

import (
	"bytes"
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

func TestAddHasRemove(t *testing.T) {
	st := NewStore()
	x := tr("Mercury", "is-a", "element")
	if !st.Add(x) {
		t.Fatal("first Add must report new")
	}
	if st.Add(x) {
		t.Fatal("duplicate Add must report not-new")
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d, want 1", st.Len())
	}
	if !st.Has(x) {
		t.Fatal("Has must find the triple")
	}
	if !st.Remove(x) {
		t.Fatal("Remove must report present")
	}
	if st.Remove(x) {
		t.Fatal("second Remove must report absent")
	}
	if st.Len() != 0 || st.Has(x) {
		t.Fatal("store must be empty after removal")
	}
}

func TestMatchAllShapes(t *testing.T) {
	st := NewStore()
	triples := []Triple{
		tr("Hg", "is-a", "element"),
		tr("Hg", "dangerLevel", "high"),
		tr("Pb", "is-a", "element"),
		tr("Pb", "dangerLevel", "high"),
		tr("Au", "is-a", "element"),
		tr("Au", "dangerLevel", "low"),
	}
	st.AddAll(triples)

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
	}
	for _, c := range cases {
		got := st.Match(c.p)
		if len(got) != c.want {
			t.Errorf("%s: got %d matches, want %d", c.name, len(got), c.want)
		}
		for _, m := range got {
			if !c.p.Matches(m) {
				t.Errorf("%s: returned non-matching triple %v", c.name, m)
			}
		}
		if n := st.Count(c.p); n != c.want {
			t.Errorf("%s: Count = %d, want %d", c.name, n, c.want)
		}
	}
}

func TestForEachEarlyStop(t *testing.T) {
	st := NewStore()
	for i := 0; i < 100; i++ {
		st.Add(tr(fmt.Sprintf("s%d", i), "p", "o"))
	}
	n := 0
	st.ForEach(Pattern{P: iri("p")}, func(Triple) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Errorf("early stop visited %d, want 10", n)
	}
}

func TestSubjectsObjects(t *testing.T) {
	st := NewStore()
	st.AddAll([]Triple{
		tr("Hg", "is-a", "HazardousWaste"),
		tr("Pb", "is-a", "HazardousWaste"),
		tr("Hg", "foundWith", "Pb"),
		tr("Hg", "foundWith", "Zn"),
	})
	subs := st.Subjects(iri("is-a"), iri("HazardousWaste"))
	if len(subs) != 2 {
		t.Errorf("Subjects: got %d, want 2", len(subs))
	}
	objs := st.Objects(iri("Hg"), iri("foundWith"))
	if len(objs) != 2 {
		t.Errorf("Objects: got %d, want 2", len(objs))
	}
}

func TestPredicates(t *testing.T) {
	st := NewStore()
	st.AddAll([]Triple{tr("a", "p2", "b"), tr("a", "p1", "b")})
	ps := st.Predicates()
	if len(ps) != 2 || ps[0].Value >= ps[1].Value {
		t.Errorf("Predicates not sorted distinct: %v", ps)
	}
}

func TestClear(t *testing.T) {
	st := NewStore()
	st.AddAll([]Triple{tr("a", "p", "b"), tr("c", "p", "d")})
	st.Clear()
	if st.Len() != 0 || len(st.Match(Pattern{})) != 0 {
		t.Error("Clear must empty the store")
	}
}

func TestMatchSortedDeterministic(t *testing.T) {
	st := NewStore()
	for i := 0; i < 50; i++ {
		st.Add(tr(fmt.Sprintf("s%02d", i), "p", "o"))
	}
	// Mixed kinds exercise the kind-major ordering of Triple.Compare.
	st.Add(Triple{NewBlank("b"), iri("p"), NewLiteral("lit")})
	a := st.MatchSorted(Pattern{})
	b := st.MatchSorted(Pattern{})
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

// Property: for random stores and random patterns, index-driven Match equals
// a naive scan filter.
func TestMatchEqualsNaiveScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	names := []string{"a", "b", "c", "d"}
	randTerm := func() Term { return iri(names[rng.Intn(len(names))]) }
	for iter := 0; iter < 200; iter++ {
		st := NewStore()
		var all []Triple
		for i := 0; i < 30; i++ {
			t3 := Triple{randTerm(), randTerm(), randTerm()}
			if st.Add(t3) {
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
		var naive []string
		for _, t3 := range all {
			if p.Matches(t3) {
				naive = append(naive, t3.String())
			}
		}
		var indexed []string
		for _, t3 := range st.Match(p) {
			indexed = append(indexed, t3.String())
		}
		sort.Strings(naive)
		sort.Strings(indexed)
		if !reflect.DeepEqual(naive, indexed) {
			t.Fatalf("iter %d: pattern %v: naive %v != indexed %v", iter, p, naive, indexed)
		}
	}
}

// Property: add then remove of random triple sets leaves the store empty, and
// all three indexes agree at each step (observed via the three match shapes).
func TestAddRemoveRoundTrip(t *testing.T) {
	f := func(seeds []uint8) bool {
		st := NewStore()
		var ts []Triple
		for _, s := range seeds {
			t3 := tr(fmt.Sprintf("s%d", s%5), fmt.Sprintf("p%d", (s/5)%3), fmt.Sprintf("o%d", (s/15)%4))
			st.Add(t3)
			ts = append(ts, t3)
		}
		for _, t3 := range ts {
			// Each index route must agree on membership.
			bySPO := len(st.Match(Pattern{S: t3.S, P: t3.P, O: t3.O})) == 1
			byPOS := false
			for _, m := range st.Match(Pattern{P: t3.P, O: t3.O}) {
				if m == t3 {
					byPOS = true
				}
			}
			byOSP := false
			for _, m := range st.Match(Pattern{S: t3.S, O: t3.O}) {
				if m == t3 {
					byOSP = true
				}
			}
			if !bySPO || !byPOS || !byOSP {
				return false
			}
		}
		for _, t3 := range ts {
			st.Remove(t3)
		}
		return st.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	st := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				st.Add(tr(fmt.Sprintf("s%d-%d", g, i), "p", "o"))
				st.Match(Pattern{P: iri("p")})
				st.Count(Pattern{S: iri(fmt.Sprintf("s%d-%d", g, i))})
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

func TestNTriplesRoundTrip(t *testing.T) {
	st := NewStore()
	st.AddAll([]Triple{
		{iri("Hg"), iri("dangerLevel"), NewLiteral("high")},
		{iri("Hg"), iri("weight"), NewTypedLiteral("200.59", XSDDouble)},
		{NewBlank("n1"), iri("note"), NewLiteral("line1\nline2 \"q\"")},
		tr("Pb", "is-a", "element"),
	})
	var buf bytes.Buffer
	if err := WriteNTriples(&buf, st); err != nil {
		t.Fatal(err)
	}
	back := NewStore()
	n, err := ReadNTriples(&buf, back)
	if err != nil {
		t.Fatal(err)
	}
	if n != st.Len() {
		t.Fatalf("read %d triples, want %d", n, st.Len())
	}
	for _, t3 := range st.Match(Pattern{}) {
		if !back.Has(t3) {
			t.Errorf("round trip lost %v", t3)
		}
	}
}

func TestReadNTriplesCommentsAndErrors(t *testing.T) {
	st := NewStore()
	in := "# comment\n\n<http://a> <http://p> \"x\" .\n"
	n, err := ReadNTriples(strings.NewReader(in), st)
	if err != nil || n != 1 {
		t.Fatalf("got n=%d err=%v", n, err)
	}
	bad := []string{
		"<http://a> <http://p>",
		"<http://a <http://p> <http://o> .",
		`<http://a> <http://p> "unterminated .`,
		`<http://a> <http://p> "x"^^<dangling .`,
		"@prefix foo <http://x> .",
		`<http://a> <http://p> "bad\q" .`,
		"_: <http://p> <http://o> .",
		`<http://a> <http://p> <http://o> . extra`,
	}
	for _, line := range bad {
		if _, err := ParseTripleLine(line); err == nil {
			t.Errorf("ParseTripleLine(%q) should fail", line)
		}
	}
}

func TestParseTripleLineForms(t *testing.T) {
	got, err := ParseTripleLine(`_:b <http://p> "v\twith\ttabs"^^<` + XSDString + `>`)
	if err != nil {
		t.Fatal(err)
	}
	if !got.S.IsBlank() || got.O.Value != "v\twith\ttabs" {
		t.Errorf("parsed %v", got)
	}
	// Datatype xsd:string normalises away on print but parses fine.
	if got.O.Datatype != XSDString {
		t.Errorf("datatype = %q", got.O.Datatype)
	}
}
