package rdf

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestOrdSetMatchesMap drives the paged bitset with random adds and
// removes over ordinals spanning many pages and checks it against a map:
// membership, population, ascending enumeration, and that emptied pages
// are freed and the page table ends at the last allocated page.
func TestOrdSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s ordSet
	model := map[uint32]bool{}
	for i := 0; i < 20000; i++ {
		o := uint32(rng.Intn(6 << pageShift))
		if rng.Intn(3) == 0 {
			if got := s.remove(o); got != model[o] {
				t.Fatalf("remove(%d) = %v, want %v", o, got, model[o])
			}
			delete(model, o)
		} else {
			if got := s.add(o); got == model[o] {
				t.Fatalf("add(%d) = %v with member %v", o, got, model[o])
			}
			model[o] = true
		}
		if s.n != len(model) {
			t.Fatalf("n = %d, want %d", s.n, len(model))
		}
	}
	for o := uint32(0); o < 7<<pageShift; o++ {
		if s.has(o) != model[o] {
			t.Fatalf("has(%d) = %v", o, s.has(o))
		}
	}
	var got []uint32
	s.each(func(o uint32) bool { got = append(got, o); return true })
	want := make([]uint32, 0, len(model))
	for o := range model {
		want = append(want, o)
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("each yields %d ordinals, want %d in ascending order", len(got), len(want))
	}
	for o := range model {
		s.remove(o)
	}
	if s.n != 0 || len(s.pages) != 0 {
		t.Fatalf("emptied set keeps n=%d, %d page slots", s.n, len(s.pages))
	}
}

// TestViewMemoryIsPerPage pins that a view's membership costs pages only
// where it holds triples: a view holding one triple at an ordinal past one
// million allocates one bitset page, not a dense copy of the arena.
func TestViewMemoryIsPerPage(t *testing.T) {
	const n = 1<<20 + 5
	terms := make([]Term, 1100)
	for i := range terms {
		terms[i] = NewIRI(fmt.Sprintf("t%d", i))
	}
	s := NewSharedStore()
	var last TripleKey
	for i := 0; i < n; i++ {
		last = s.AcquireTriple(Triple{S: terms[i%1024], P: terms[0], O: terms[i/1024]})
	}
	v := s.NewView()
	if !v.Add(last) {
		t.Fatal("Add of an asserted triple failed")
	}
	pages := 0
	for _, p := range v.members.pages {
		if p != nil {
			pages++
		}
	}
	if o, _ := s.ords[last]; o < 1<<20 || pages != 1 {
		t.Fatalf("view holding ordinal %d allocates %d bitset pages, want 1", o, pages)
	}
	if !v.Remove(last) || len(v.members.pages) != 0 {
		t.Fatalf("emptied view keeps %d page slots", len(v.members.pages))
	}
}

// TestViewAddOfUnassertedKey pins what a view does with a key the arena
// does not assert: it has no ordinal, so the view stays unchanged and Add
// and AddBatch report it as not added.
func TestViewAddOfUnassertedKey(t *testing.T) {
	s := NewSharedStore()
	k := s.AcquireTriple(Triple{viri("a"), viri("p"), viri("b")})
	s.Release(k)
	v := s.NewView()
	if v.Add(k) || v.AddBatch([]TripleKey{k, {90, 91, 92}}) != 0 || v.Len() != 0 || v.Has(k) {
		t.Fatalf("view accepted a released key: Len %d", v.Len())
	}
	if Count(v, Pattern{S: viri("a")}) != 0 {
		t.Fatal("counters moved for an unasserted key")
	}
}
