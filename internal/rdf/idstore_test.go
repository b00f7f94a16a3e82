package rdf

import (
	"fmt"
	"math/rand"
	"testing"
)

func idFixtureStore(t *testing.T) *SharedStore {
	t.Helper()
	st := NewSharedStore()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		st.AcquireTriple(Triple{
			S: NewIRI(fmt.Sprintf("http://x/s%d", rng.Intn(20))),
			P: NewIRI(fmt.Sprintf("http://x/p%d", rng.Intn(5))),
			O: NewIRI(fmt.Sprintf("http://x/o%d", rng.Intn(40))),
		})
	}
	st.AcquireTriple(Triple{S: NewIRI("http://x/s0"), P: NewIRI("http://x/p0"),
		O: NewTypedLiteral("7", XSDInteger)})
	return st
}

// encodeTestPattern resolves a term-level pattern through the public ID API.
func encodeTestPattern(t *testing.T, st Graph, p Pattern) (PatternIDs, bool) {
	t.Helper()
	var ids PatternIDs
	resolve := func(term Term) (TermID, bool) {
		if term.IsZero() {
			return 0, true
		}
		return idOf(st, term)
	}
	var ok bool
	if ids.S, ok = resolve(p.S); !ok {
		return ids, false
	}
	if ids.P, ok = resolve(p.P); !ok {
		return ids, false
	}
	if ids.O, ok = resolve(p.O); !ok {
		return ids, false
	}
	return ids, true
}

// Every pattern shape must stream the same triples through ForEachIDs (after
// decoding) as the term-level ForEach, and CountIDs must agree with Count,
// on the arena and on a view.
func TestForEachIDsMatchesTermLevelAcrossShapes(t *testing.T) {
	arena := idFixtureStore(t)
	view := arena.NewView()
	for i, tr := range MatchSorted(arena, Pattern{}) {
		if i%2 == 0 {
			view.Add(arena.AcquireTriple(tr))
		}
	}
	s0 := NewIRI("http://x/s0")
	p0 := NewIRI("http://x/p0")
	o0 := NewIRI("http://x/o1")
	shapes := []Pattern{
		{},
		{S: s0},
		{P: p0},
		{O: o0},
		{S: s0, P: p0},
		{P: p0, O: o0},
		{S: s0, O: o0},
		{S: s0, P: p0, O: o0},
	}
	for _, st := range []Graph{arena, view} {
		for _, pat := range shapes {
			ids, ok := encodeTestPattern(t, st, pat)
			if !ok {
				t.Fatalf("pattern %v references un-interned terms", pat)
			}
			want := map[string]int{}
			ForEach(st, pat, func(tr Triple) bool {
				want[tr.String()]++
				return true
			})
			got := map[string]int{}
			n := 0
			st.ReadIDs(func(r IDReader) {
				r.ForEachIDs(ids, func(si, pi, oi TermID) bool {
					s, okS := r.TermOf(si)
					p, okP := r.TermOf(pi)
					o, okO := r.TermOf(oi)
					if !okS || !okP || !okO {
						t.Fatalf("pattern %v: undecodable ids (%d,%d,%d)", pat, si, pi, oi)
					}
					got[Triple{s, p, o}.String()]++
					n++
					return true
				})
			})
			if len(got) != len(want) || n != Count(st, pat) {
				t.Fatalf("pattern %v: ID stream %d distinct (%d total), term stream %d, Count %d",
					pat, len(got), n, len(want), Count(st, pat))
			}
			for k, c := range want {
				if got[k] != c {
					t.Fatalf("pattern %v: triple %s seen %d times via IDs, %d via terms", pat, k, got[k], c)
				}
			}
			if countIDs(st, ids) != Count(st, pat) {
				t.Fatalf("pattern %v: CountIDs %d != Count %d", pat, countIDs(st, ids), Count(st, pat))
			}
		}
	}
}

func TestForEachIDsEarlyStop(t *testing.T) {
	st := idFixtureStore(t)
	n := 0
	st.ReadIDs(func(r IDReader) {
		r.ForEachIDs(PatternIDs{}, func(_, _, _ TermID) bool {
			n++
			return n < 3
		})
	})
	if n != 3 {
		t.Fatalf("early stop after 3, saw %d", n)
	}
}

func TestTermOfIDOfRoundTrip(t *testing.T) {
	st := NewSharedStore()
	terms := []Term{
		NewIRI("http://x/a"),
		NewBlank("b1"),
		NewLiteral("plain"),
		NewTypedLiteral("5", XSDInteger),
		NewTypedLiteral("5", XSDDouble), // same lexical form, distinct datatype
	}
	for _, tm := range terms {
		st.AcquireTriple(Triple{S: NewIRI("http://x/s"), P: NewIRI("http://x/p"), O: tm})
	}
	st.ReadIDs(func(st IDReader) {
		seen := map[TermID]struct{}{}
		for _, tm := range terms {
			id, ok := st.IDOf(tm)
			if !ok || id == 0 {
				t.Fatalf("IDOf(%v) = (%d, %v)", tm, id, ok)
			}
			if _, dup := seen[id]; dup {
				t.Fatalf("id %d issued twice", id)
			}
			seen[id] = struct{}{}
			back, ok := st.TermOf(id)
			if !ok || back != tm {
				t.Fatalf("TermOf(IDOf(%v)) = (%v, %v)", tm, back, ok)
			}
		}
		if _, ok := st.IDOf(NewIRI("http://x/never")); ok {
			t.Error("IDOf must report false for never-interned terms")
		}
		if _, ok := st.TermOf(0); ok {
			t.Error("TermOf(0) must report false (reserved wildcard)")
		}
		if _, ok := st.TermOf(TermID(1 << 30)); ok {
			t.Error("TermOf of a never-issued id must report false")
		}
	})
}

// ReadIDs must expose a consistent snapshot usable for nested probes — the
// executor's access pattern: an outer enumeration issuing inner probes per
// row, all under one read transaction.
func TestReadIDsNestedProbes(t *testing.T) {
	st := idFixtureStore(t)
	p0 := NewIRI("http://x/p0")
	pid, ok := idOf(st, p0)
	if !ok {
		t.Fatal("p0 not interned")
	}
	wantJoin := 0
	for _, tr := range MatchSorted(st, Pattern{P: p0}) {
		wantJoin += Count(st, Pattern{S: tr.O})
	}
	gotJoin := 0
	st.ReadIDs(func(r IDReader) {
		r.ForEachIDs(PatternIDs{P: pid}, func(_, _, oi TermID) bool {
			gotJoin += r.CountIDs(PatternIDs{S: oi})
			return true
		})
	})
	if gotJoin != wantJoin {
		t.Fatalf("nested join under ReadIDs: got %d, want %d", gotJoin, wantJoin)
	}
}

func TestDictTermOfIDOf(t *testing.T) {
	d := NewDict()
	a := NewIRI("http://x/a")
	id := d.Encode(a)
	if got, ok := d.TermOf(id); !ok || got != a {
		t.Fatalf("TermOf(%d) = (%v, %v)", id, got, ok)
	}
	if got, ok := d.IDOf(a); !ok || got != id {
		t.Fatalf("IDOf = (%d, %v), want %d", got, ok, id)
	}
	if _, ok := d.TermOf(0); ok {
		t.Error("TermOf(0) must be false")
	}
	if _, ok := d.TermOf(id + 1); ok {
		t.Error("TermOf past the issued range must be false")
	}
}
