package rdf

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"unsafe"
)

func viri(n string) Term { return NewIRI("http://x/" + n) }

func TestSharedStoreAcquireRelease(t *testing.T) {
	s := NewSharedStore()
	tr := Triple{viri("a"), viri("p"), viri("b")}
	k := s.AcquireTriple(tr)
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	// A second assertion of the same triple must not duplicate it.
	k2 := s.AcquireTriple(tr)
	if k != k2 {
		t.Fatalf("re-encoding changed the key: %v vs %v", k, k2)
	}
	if s.Len() != 1 {
		t.Fatalf("Len after double acquire = %d, want 1", s.Len())
	}
	if got, ok := s.DecodeTriple(k); !ok || got != tr {
		t.Fatalf("DecodeTriple = %v, %v", got, ok)
	}
	// First release keeps it (one reference left), second drops it.
	s.Release(k)
	if s.Len() != 1 {
		t.Fatalf("Len after first release = %d, want 1", s.Len())
	}
	s.Release(k)
	if s.Len() != 0 {
		t.Fatalf("Len after last release = %d, want 0", s.Len())
	}
	if Count(s, Pattern{S: viri("a")}) != 0 {
		t.Fatal("released triple still matches in union indexes")
	}
	// Terms stay interned.
	if _, ok := idOf(s, viri("a")); !ok {
		t.Fatal("term released from dictionary")
	}
	// Releasing an unknown key is a no-op.
	s.Release(TripleKey{999, 999, 999})
}

// TestViewAddRemoveAndCount pins Add and Remove's new/present reports, and
// that Len, Has and Count follow the membership both ways.
func TestViewAddRemoveAndCount(t *testing.T) {
	s := NewSharedStore()
	v := s.NewView()
	tr := Triple{viri("a"), viri("p"), viri("b")}
	k := s.AcquireTriple(tr)
	if !v.Add(k) {
		t.Fatal("Add reported not-new")
	}
	if v.Add(k) {
		t.Fatal("duplicate Add reported new")
	}
	if v.Len() != 1 || !v.Has(k) {
		t.Fatalf("Len=%d Has=%v", v.Len(), v.Has(k))
	}
	if n := Count(v, Pattern{S: viri("a")}); n != 1 {
		t.Fatalf("Count(S) = %d", n)
	}
	if !v.Remove(k) {
		t.Fatal("Remove reported absent")
	}
	if v.Remove(k) {
		t.Fatal("double Remove reported present")
	}
	if v.Len() != 0 || Count(v, Pattern{S: viri("a")}) != 0 {
		t.Fatalf("view not empty after remove: len=%d", v.Len())
	}
}

// TestViewParityWithStore drives a view with a random subset of the
// arena's triples and checks Count and ForEach against a naive scan of that
// subset for every pattern shape — including both sides of the
// cheaper-side iteration choice, since the view holds a small fraction of
// a much larger arena.
func TestViewParityWithStore(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shared := NewSharedStore()
	v := shared.NewView()

	var all, held []Triple
	seen := map[Triple]bool{}
	for i := 0; i < 2000; i++ {
		tr := Triple{
			S: viri(fmt.Sprintf("s%d", rng.Intn(50))),
			P: viri(fmt.Sprintf("p%d", rng.Intn(8))),
			O: viri(fmt.Sprintf("o%d", rng.Intn(200))),
		}
		k := shared.AcquireTriple(tr)
		if !seen[tr] {
			seen[tr] = true
			all = append(all, tr)
		}
		if i%5 == 0 && v.Add(k) { // view holds ~20% of the arena
			held = append(held, tr)
		}
	}
	pats := []Pattern{
		{},
		{S: viri("s1")},
		{P: viri("p2")},
		{O: viri("o3")},
		{S: viri("s1"), P: viri("p2")},
		{P: viri("p2"), O: viri("o3")},
		{S: viri("s1"), O: viri("o3")},
		held[0].pattern(),
		all[1].pattern(),
		{S: viri("never")},
		{S: viri("s1"), P: viri("never")},
	}
	for _, p := range pats {
		want := naive(held, p)
		if got := Count(v, p); got != len(want) {
			t.Errorf("Count(%v) = %d, want %d", p, got, len(want))
		}
		if got := collect(v, p); !equalTriples(got, want) {
			t.Errorf("ForEach(%v): got %d triples, want %d", p, len(got), len(want))
		}
	}

	// Flip the balance: a view holding nearly everything iterates the
	// shared posting lists; results must still agree.
	big := shared.NewView()
	for _, tr := range all {
		big.Add(shared.AcquireTriple(tr))
	}
	for _, p := range pats {
		want := naive(all, p)
		if got := Count(big, p); got != len(want) {
			t.Errorf("big view Count(%v) = %d, want %d", p, got, len(want))
		}
		if !equalTriples(collect(big, p), want) {
			t.Errorf("big view ForEach(%v) mismatch", p)
		}
	}
}

func (t Triple) pattern() Pattern { return Pattern{S: t.S, P: t.P, O: t.O} }

func collect(g Graph, p Pattern) []Triple {
	var out []Triple
	ForEach(g, p, func(t Triple) bool {
		out = append(out, t)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

func equalTriples(a, b []Triple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestViewReleaseDropsFromOverlay pins the arena/view invariant: a triple
// released from the arena disappears from every overlay's iteration, so the
// KB layer must keep triples acquired while any view holds them.
func TestViewReleaseDropsFromOverlay(t *testing.T) {
	s := NewSharedStore()
	v := s.NewView()
	k := s.AcquireTriple(Triple{viri("a"), viri("p"), viri("b")})
	v.Add(k)
	s.Release(k)
	// The view still holds the ordinal (it was not told), but shared-side
	// iteration no longer surfaces it for bound patterns.
	if n := len(collect(v, Pattern{S: viri("a")})); n != 0 {
		t.Fatalf("released triple still iterates: %d", n)
	}
}

func TestViewReadIDsTransaction(t *testing.T) {
	s := NewSharedStore()
	v := s.NewView()
	for i := 0; i < 10; i++ {
		k := s.AcquireTriple(Triple{viri(fmt.Sprintf("s%d", i)), viri("p"), viri("o")})
		v.Add(k)
	}
	v.ReadIDs(func(r IDReader) {
		pid, ok := r.IDOf(viri("p"))
		if !ok {
			t.Fatal("IDOf(p) failed")
		}
		if n := r.CountIDs(PatternIDs{P: pid}); n != 10 {
			t.Fatalf("CountIDs = %d, want 10", n)
		}
		seen := 0
		r.ForEachIDs(PatternIDs{P: pid}, func(a, b, c TermID) bool {
			if term, ok := r.TermOf(a); !ok || !term.IsIRI() {
				t.Fatalf("TermOf(%d) = %v, %v", a, term, ok)
			}
			seen++
			return true
		})
		if seen != 10 {
			t.Fatalf("ForEachIDs saw %d, want 10", seen)
		}
	})
}

// TestViewAddBatchCountsDuplicatesOnce covers the bulk-import fast path
// into a fresh view: a key repeated within the batch is added and counted
// once.
func TestViewAddBatchCountsDuplicatesOnce(t *testing.T) {
	s := NewSharedStore()
	var ks []TripleKey
	for i := 0; i < 200; i++ {
		ks = append(ks, s.AcquireTriple(Triple{viri(fmt.Sprintf("s%d", i)), viri("p"), viri("o")}))
	}
	ks = append(ks, ks[0]) // duplicate
	v := s.NewView()
	if n := v.AddBatch(ks); n != 200 {
		t.Fatalf("AddBatch = %d, want 200", n)
	}
	if v.Len() != 200 {
		t.Fatalf("Len = %d", v.Len())
	}
	if n := Count(v, Pattern{P: viri("p")}); n != 200 {
		t.Fatalf("Count(P) = %d", n)
	}
}

// TestViewHeapIsItsMembership pins what a bulk import costs a fresh view:
// its bitset pages, its page table and one count per predicate. A
// per-pattern counter map with an entry per distinct subject, object or
// pair would cost megabytes here.
func TestViewHeapIsItsMembership(t *testing.T) {
	const n, preds = 100000, 20
	s := NewSharedStore()
	ks := make([]TripleKey, n)
	for i := range ks {
		ks[i] = s.AcquireTriple(Triple{viri(fmt.Sprintf("s%d", i/4)), viri(fmt.Sprintf("p%d", i%preds)), viri(fmt.Sprintf("o%d", i))})
	}
	v := s.NewView()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if got := v.AddBatch(ks); got != n {
		t.Fatalf("AddBatch = %d, want %d", got, n)
	}
	runtime.ReadMemStats(&after)
	pages := (n + 1<<pageShift - 1) >> pageShift
	bound := pages*int(unsafe.Sizeof(bitPage{})) + // the pages
		2*pages*int(unsafe.Sizeof((*bitPage)(nil))) + // the page table, grown by append
		preds*64 + // cntP
		16<<10 // slack: size-class rounding and map buckets
	if got := int(after.TotalAlloc - before.TotalAlloc); got > bound {
		t.Fatalf("AddBatch of %d keys allocated %d bytes, want ≤ %d (%d pages)", n, got, bound, pages)
	}
	if got := Count(v, Pattern{P: viri("p3")}); got != n/preds {
		t.Fatalf("Count(?P?) = %d, want %d", got, n/preds)
	}
}

// TestSharedConcurrentMutationAndReads races arena mutations and view
// mutations against ReadIDs transactions on other views. Run with -race.
func TestSharedConcurrentMutationAndReads(t *testing.T) {
	s := NewSharedStore()
	const users = 4
	views := make([]*View, users)
	var base []TripleKey
	for i := 0; i < 100; i++ {
		base = append(base, s.AcquireTriple(Triple{viri(fmt.Sprintf("s%d", i)), viri("p"), viri("o")}))
	}
	for u := range views {
		views[u] = s.NewView()
		views[u].AddBatch(base)
	}
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		u := u
		wg.Add(1)
		go func() { // mutator: private triples come and go
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr := Triple{viri(fmt.Sprintf("u%d_%d", u, i)), viri("q"), viri("o")}
				k := s.AcquireTriple(tr)
				views[u].Add(k)
				if i%2 == 0 {
					views[u].Remove(k)
					s.Release(k)
				}
			}
		}()
		wg.Add(1)
		go func() { // reader: whole-view transactions
			defer wg.Done()
			for i := 0; i < 200; i++ {
				views[u].ReadIDs(func(r IDReader) {
					pid, ok := r.IDOf(viri("p"))
					if !ok {
						t.Error("p vanished from dictionary")
						return
					}
					if n := r.CountIDs(PatternIDs{P: pid}); n < 100 {
						t.Errorf("base triples missing: %d", n)
					}
					r.ForEachIDs(PatternIDs{P: pid}, func(a, b, c TermID) bool { return true })
				})
			}
		}()
	}
	wg.Wait()
}
