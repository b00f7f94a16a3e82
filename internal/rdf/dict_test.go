package rdf

import "testing"

func TestDictEncodeLookup(t *testing.T) {
	d := NewDict()
	a, b := iri("a"), iri("b")
	idA := d.Encode(a)
	if id := d.Encode(a); id != idA {
		t.Fatalf("re-encoding the same term gave %d, want %d", id, idA)
	}
	idB := d.Encode(b)
	if idA == idB {
		t.Fatal("distinct terms must get distinct IDs")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
	if got, _ := d.TermOf(idA); got != a {
		t.Fatalf("Term(%d) = %v, want %v", idA, got, a)
	}
	if _, ok := d.IDOf(iri("never-seen")); ok {
		t.Fatal("Lookup must not intern unseen terms")
	}
	if d.Len() != 2 {
		t.Fatalf("Lookup interned: Len = %d, want 2", d.Len())
	}
	// Literals with different datatypes are distinct terms.
	l1 := d.Encode(NewLiteral("1"))
	l2 := d.Encode(NewTypedLiteral("1", XSDInteger))
	if l1 == l2 {
		t.Fatal("plain and typed literal must intern separately")
	}
}

// Count must answer every shape from index sizes; this cross-checks it
// against ForEach enumeration on an arena with mixed term kinds, including
// after a triple's last release (which must decrement the sub-index counters).
func TestCountMatchesEnumeration(t *testing.T) {
	st := NewSharedStore()
	ts := []Triple{
		{iri("Hg"), iri("dangerLevel"), NewLiteral("high")},
		{iri("Hg"), iri("is-a"), iri("element")},
		{iri("Pb"), iri("dangerLevel"), NewLiteral("high")},
		{iri("Pb"), iri("is-a"), iri("element")},
		{NewBlank("n1"), iri("note"), NewLiteral("x")},
	}
	keys := make([]TripleKey, len(ts))
	for i, t3 := range ts {
		keys[i] = st.AcquireTriple(t3)
	}
	st.Release(keys[2])
	if Count(st, Pattern{S: iri("Pb"), P: iri("dangerLevel")}) != 0 {
		t.Fatal("the last release must remove the triple from the arena")
	}

	pats := []Pattern{
		{},
		{S: iri("Hg")},
		{P: iri("dangerLevel")},
		{O: NewLiteral("high")},
		{S: iri("Hg"), P: iri("is-a")},
		{P: iri("is-a"), O: iri("element")},
		{S: iri("Hg"), O: NewLiteral("high")},
		{S: iri("Hg"), P: iri("dangerLevel"), O: NewLiteral("high")},
		{S: iri("absent")},
		{P: iri("absent")},
		{O: iri("absent")},
	}
	for _, p := range pats {
		want := 0
		ForEach(st, p, func(Triple) bool { want++; return true })
		if got := Count(st, p); got != want {
			t.Errorf("Count(%v) = %d, enumeration gives %d", p, got, want)
		}
	}
}

// Literals containing NUL bytes must not collide with typed literals whose
// (value, datatype) pair happens to render the same byte sequence — the
// struct-keyed typed-literal map keeps the two fields separate.
func TestDictNulLiteralNoCollision(t *testing.T) {
	d := NewDict()
	plain := d.Encode(NewLiteral("a\x00" + XSDInteger))
	typed := d.Encode(NewTypedLiteral("a", XSDInteger))
	if plain == typed {
		t.Fatal("plain literal with embedded NUL must not alias a typed literal")
	}
	if p, _ := d.TermOf(plain); p != NewLiteral("a\x00"+XSDInteger) {
		t.Fatal("decode must round-trip both literals")
	}
	if ty, _ := d.TermOf(typed); ty != NewTypedLiteral("a", XSDInteger) {
		t.Fatal("decode must round-trip both literals")
	}
	// Typed vs typed: value "a\x00b" ^^ "c" is not value "a" ^^ "b\x00c".
	t1 := d.Encode(NewTypedLiteral("a\x00b", "c"))
	t2 := d.Encode(NewTypedLiteral("a", "b\x00c"))
	if t1 == t2 {
		t.Fatal("typed literals must intern on (value, datatype), not a joined byte string")
	}

	st := NewSharedStore()
	s, p := iri("s"), iri("p")
	st.AcquireTriple(Triple{s, p, NewTypedLiteral("a\x00b", "c")})
	if Count(st, Pattern{s, p, NewTypedLiteral("a", "b\x00c")}) != 0 {
		t.Fatal("store must not report a triple that was never added")
	}
}
