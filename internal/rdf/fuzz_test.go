package rdf

import (
	"bufio"
	"bytes"
	"fmt"
	"maps"
	"testing"
)

// viewOpsUniverse is the triple vocabulary FuzzViewOps draws from: small
// enough that triples repeat, are released and come back under recycled
// ordinals, and wide enough that every posting holds several ordinals, so
// swap-removals move other triples' slots. Each term heads up to nine
// triples, so a one-ID posting grows past shortScan and shrinks back, and
// two-ID patterns are read both ways.
func viewOpsUniverse() []Triple {
	var ts []Triple
	for s := 0; s < 3; s++ {
		for p := 0; p < 3; p++ {
			for o := 0; o < 3; o++ {
				ts = append(ts, Triple{
					S: NewIRI(fmt.Sprintf("http://f/s%d", s)),
					P: NewIRI(fmt.Sprintf("http://f/p%d", p)),
					O: NewIRI(fmt.Sprintf("http://f/o%d", o)),
				})
			}
		}
	}
	return ts
}

// Operation codes of FuzzViewOps: each step is an (op, arg) byte pair. arg
// picks the triple (arg % 27); a view operation takes the view from arg & 1
// and the triple from arg >> 1.
const (
	opAcquire = iota
	opRelease
	opAdd
	opAddBatch
	opRemove
	numViewOps
)

// FuzzViewOps runs random acquire, release, Add, AddBatch and Remove
// operations on one arena and two views, and after every step checks
// CountIDs and the ForEachIDs multiset of all eight pattern shapes against
// a naive map model, on the arena and on both views. Release keeps the KB
// invariant: a triple's last release first drops it from both views, so
// its ordinal is recycled only once no view holds it. The run ends with a
// snapshot round trip checked against the same model.
func FuzzViewOps(f *testing.F) {
	// Ordinal reuse: t0 enters view 0 and leaves it, t0 is released, t17
	// takes t0's ordinal, and view 1 (which never held t0) and view 0 are
	// read.
	f.Add([]byte{opAcquire, 0, opAdd, 0, opRemove, 0, opRelease, 0, opAcquire, 17, opAdd, 17<<1 | 1})
	// A view that keeps a triple while others come and go around it: the
	// release of t2 moves t3 into t2's slot of the postings they share,
	// and t3's own release must then find it there.
	f.Add([]byte{opAcquire, 1, opAcquire, 2, opAcquire, 3, opAddBatch, 1 << 1, opRelease, 2, opAcquire, 4, opAdd, 4 << 1, opRemove, 1 << 1, opAdd, 3<<1 | 1, opRelease, 3, opRelease, 1})
	// s0 heads t0…t8: its posting grows past shortScan and shrinks back.
	f.Add([]byte{opAcquire, 0, opAcquire, 1, opAcquire, 2, opAcquire, 3, opAcquire, 4, opAcquire, 5, opAcquire, 6,
		opAcquire, 7, opAcquire, 8, opAddBatch, 0, opAddBatch, 3<<1 | 1, opRelease, 4, opRelease, 0, opRemove, 1 << 1})
	// View 0 comes to hold every asserted triple after t26 takes t5's
	// recycled ordinal, so a count walks the shorter arena posting there and
	// the view's set bits in the sparse view 1; t5 then comes back under a
	// fresh ordinal.
	most := []byte{}
	for i := byte(0); i < 26; i++ {
		most = append(most, opAcquire, i)
	}
	most = append(most, opRelease, 5, opAcquire, 26)
	for i := byte(0); i < 27; i += 3 {
		most = append(most, opAddBatch, i<<1)
	}
	f.Add(append(most, opAdd, 26<<1|1, opAdd, 4<<1|1, opRemove, 26<<1, opAcquire, 5, opAdd, 5<<1))
	// Adds of triples the arena does not assert.
	f.Add([]byte{opAdd, 5, opAddBatch, 7, opAcquire, 5, opAdd, 5 << 1, opRelease, 5})
	universe := viewOpsUniverse()
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 400 {
			ops = ops[:400]
		}
		m := newViewOpsModel(universe)
		for i := 0; i+1 < len(ops); i += 2 {
			m.step(t, ops[i]%numViewOps, ops[i+1])
			m.check(t, m.arena, m.views[0], m.views[1])
		}
		var buf bytes.Buffer
		if err := m.arena.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		for _, v := range m.views {
			if err := v.WriteSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
		}
		r := bufio.NewReader(&buf)
		arena, err := ReadSharedSnapshot(r)
		if err != nil {
			t.Fatalf("ReadSharedSnapshot: %v", err)
		}
		var views [2]*View
		for i := range views {
			if views[i], err = arena.ReadViewSnapshot(r); err != nil {
				t.Fatalf("ReadViewSnapshot %d: %v", i, err)
			}
		}
		m.check(t, arena, views[0], views[1])
	})
}

// viewOpsModel is FuzzViewOps' reference: per-key refcounts for the arena
// and a key set per view, beside the real arena and views.
type viewOpsModel struct {
	universe []Triple
	arena    *SharedStore
	views    [2]*View
	keys     map[int]TripleKey // universe index → key, once interned
	refs     map[TripleKey]int
	held     [2]map[TripleKey]bool
}

func newViewOpsModel(universe []Triple) *viewOpsModel {
	arena := NewSharedStore()
	return &viewOpsModel{
		universe: universe,
		arena:    arena,
		views:    [2]*View{arena.NewView(), arena.NewView()},
		keys:     map[int]TripleKey{},
		refs:     map[TripleKey]int{},
		held:     [2]map[TripleKey]bool{{}, {}},
	}
}

// key returns the universe triple's key; a triple never acquired gets the
// key of IDs past the dictionary, which no arena asserts.
func (m *viewOpsModel) key(i int) TripleKey {
	if k, ok := m.keys[i]; ok {
		return k
	}
	n := TermID(m.arena.DictLen())
	return TripleKey{n + 1, n + 2, TermID(n + 3 + TermID(i))}
}

func (m *viewOpsModel) step(t *testing.T, op, arg byte) {
	t.Helper()
	ti := int(arg) % len(m.universe)
	vi := int(arg) & 1
	if op == opAdd || op == opRemove || op == opAddBatch {
		ti = int(arg>>1) % len(m.universe)
	}
	switch op {
	case opAcquire:
		k := m.arena.AcquireTriple(m.universe[ti])
		m.keys[ti] = k
		m.refs[k]++
	case opRelease:
		k := m.key(ti)
		if m.refs[k] == 0 {
			return
		}
		if m.refs[k] == 1 {
			for v := range m.views {
				m.views[v].Remove(k)
				delete(m.held[v], k)
			}
		}
		m.arena.Release(k)
		if m.refs[k]--; m.refs[k] == 0 {
			delete(m.refs, k)
		}
	case opAdd:
		k := m.key(ti)
		want := m.refs[k] > 0 && !m.held[vi][k]
		if got := m.views[vi].Add(k); got != want {
			t.Fatalf("view %d Add(%v) = %v, want %v (refs %d)", vi, m.universe[ti], got, want, m.refs[k])
		}
		if want {
			m.held[vi][k] = true
		}
	case opAddBatch:
		// Three consecutive universe triples, the first one twice.
		var ks []TripleKey
		want := 0
		seen := map[TripleKey]bool{}
		for j := 0; j < 3; j++ {
			k := m.key((ti + j) % len(m.universe))
			ks = append(ks, k)
			if j == 0 {
				ks = append(ks, k)
			}
			if m.refs[k] > 0 && !m.held[vi][k] && !seen[k] {
				want++
				seen[k] = true
			}
		}
		if got := m.views[vi].AddBatch(ks); got != want {
			t.Fatalf("view %d AddBatch = %d, want %d", vi, got, want)
		}
		for k := range seen {
			m.held[vi][k] = true
		}
	case opRemove:
		k := m.key(ti)
		want := m.held[vi][k]
		if got := m.views[vi].Remove(k); got != want {
			t.Fatalf("view %d Remove(%v) = %v, want %v", vi, m.universe[ti], got, want)
		}
		delete(m.held[vi], k)
	}
}

// check compares the arena and both views with the model over all eight
// pattern shapes of every interned universe triple, plus patterns over
// IDs no triple has.
func (m *viewOpsModel) check(t *testing.T, arena *SharedStore, v0, v1 *View) {
	t.Helper()
	asserted := map[TripleKey]bool{}
	for k := range m.refs {
		asserted[k] = true
	}
	if arena.Len() != len(asserted) {
		t.Fatalf("arena Len = %d, model %d", arena.Len(), len(asserted))
	}
	for k, n := range m.refs {
		if got := arena.RefCount(k); got != n {
			t.Fatalf("RefCount(%v) = %d, model %d", k, got, n)
		}
	}
	pats := []PatternIDs{{}}
	for _, k := range m.keys {
		pats = append(pats,
			PatternIDs{S: k[0]}, PatternIDs{P: k[1]}, PatternIDs{O: k[2]},
			PatternIDs{S: k[0], P: k[1]}, PatternIDs{P: k[1], O: k[2]}, PatternIDs{S: k[0], O: k[2]},
			PatternIDs{S: k[0], P: k[1], O: k[2]}, PatternIDs{S: k[2], P: k[0], O: k[1]})
	}
	for name, g := range map[string]struct {
		graph Graph
		set   map[TripleKey]bool
	}{"arena": {arena, asserted}, "view 0": {v0, m.held[0]}, "view 1": {v1, m.held[1]}} {
		if v, ok := g.graph.(*View); ok && v.Len() != len(g.set) {
			t.Fatalf("%s Len = %d, model %d", name, v.Len(), len(g.set))
		}
		g.graph.ReadIDs(func(r IDReader) {
			for _, p := range pats {
				want := map[TripleKey]int{}
				for k := range g.set {
					if (p.S == 0 || p.S == k[0]) && (p.P == 0 || p.P == k[1]) && (p.O == 0 || p.O == k[2]) {
						want[k]++
					}
				}
				got := map[TripleKey]int{}
				r.ForEachIDs(p, func(s, pr, o TermID) bool {
					got[TripleKey{s, pr, o}]++
					return true
				})
				if !maps.Equal(got, want) {
					t.Fatalf("%s ForEachIDs(%v) = %v, model %v", name, p, got, want)
				}
				if n := r.CountIDs(p); n != len(want) {
					t.Fatalf("%s CountIDs(%v) = %d, model %d", name, p, n, len(want))
				}
			}
		})
	}
}
