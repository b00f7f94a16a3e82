package rdf

// This file implements the shared-dictionary overlay layer: one SharedStore
// holds the platform-wide dictionary plus refcounted union indexes over
// every asserted triple, and each user's knowledge base is a View — an
// overlay holding only compact ID-level state (a TripleKey membership set
// plus O(1) per-view pattern counters). A corpus believed by N users is
// interned and indexed once; each extra believer costs only ID-keyed map
// entries, never term strings. The arena and each view implement Graph,
// so the streaming SPARQL executor, the enrichment pipeline and the
// term-level package functions (ForEach, Count, …) read both the same way.
//
// Concurrency discipline: the arena and each view carry their own RWMutex.
// Readers (View.ReadIDs, and through it every term-level read of a view)
// acquire the view lock then the arena lock, once per transaction, and run
// lock-free inside.
// Mutators never hold both locks at the same time — the KB layer acquires
// the arena (AcquireTriple/Release) and the view (Add/Remove) in separate
// critical sections — so an in-flight read transaction is never invalidated
// and there is no lock-order cycle.

import "sync"

// SharedStore is the platform-wide encoded triple arena: one dictionary and
// one set of SPO/POS/OSP union indexes over every triple asserted by any
// statement, with a per-triple assertion refcount. It is safe for
// concurrent use and itself implements Graph (the union graph). It is the
// only triple store: a graph that no user owns is an arena that nothing
// ever releases from.
type SharedStore struct {
	mu   sync.RWMutex
	dict *Dict
	encStore
	refs map[TripleKey]int32 // assertions per triple; >0 ⇒ indexed
}

// NewSharedStore returns an empty arena.
func NewSharedStore() *SharedStore {
	return &SharedStore{
		dict:     NewDict(),
		encStore: newEncStore(),
		refs:     make(map[TripleKey]int32),
	}
}

// AcquireTriple interns and asserts the triple in one step, returning its
// key. Each call adds one assertion reference; the triple enters the union
// indexes on its first reference.
func (s *SharedStore) AcquireTriple(t Triple) TripleKey {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := TripleKey{s.dict.Encode(t.S), s.dict.Encode(t.P), s.dict.Encode(t.O)}
	if s.refs[k]++; s.refs[k] == 1 {
		s.addKey(k)
	}
	return k
}

// Release drops one assertion reference; on the last release the triple
// leaves the union indexes (its terms stay interned — IDs are never
// recycled). A triple must stay acquired for as long as any View holds it:
// views iterate the shared posting lists, so a released triple disappears
// from every overlay.
func (s *SharedStore) Release(k TripleKey) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.refs[k]
	if !ok {
		return
	}
	if n <= 1 {
		delete(s.refs, k)
		s.delKey(k)
		return
	}
	s.refs[k] = n - 1
}

// DecodeTriple resolves an encoded key back to its terms, reporting false
// when any ID was never issued.
func (s *SharedStore) DecodeTriple(k TripleKey) (Triple, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, okS := s.dict.TermOf(k[0])
	pt, okP := s.dict.TermOf(k[1])
	ot, okO := s.dict.TermOf(k[2])
	if !okS || !okP || !okO {
		return Triple{}, false
	}
	return Triple{st, pt, ot}, true
}

// Len returns the number of distinct asserted triples.
func (s *SharedStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.triples)
}

// DictLen returns the number of interned terms (memory diagnostics: this
// grows with the corpus, never with the user count).
func (s *SharedStore) DictLen() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dict.Len()
}

// sharedReader implements IDReader over the union graph without per-call
// locking; the enclosing ReadIDs holds the arena read lock.
type sharedReader struct{ s *SharedStore }

func (r sharedReader) ForEachIDs(p PatternIDs, fn func(s, p, o TermID) bool) {
	r.s.matchIDs(p, fn)
}
func (r sharedReader) CountIDs(p PatternIDs) int     { return r.s.countIDs(p) }
func (r sharedReader) TermOf(id TermID) (Term, bool) { return r.s.dict.TermOf(id) }
func (r sharedReader) IDOf(t Term) (TermID, bool)    { return r.s.dict.IDOf(t) }

// ReadIDs runs fn as one read transaction over the union graph.
func (s *SharedStore) ReadIDs(fn func(IDReader)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	fn(sharedReader{s})
}

// NewView returns an empty overlay over the arena.
func (s *SharedStore) NewView() *View {
	return &View{
		shared:  s,
		members: make(map[TripleKey]struct{}),
		cntS:    make(map[TermID]int32),
		cntP:    make(map[TermID]int32),
		cntO:    make(map[TermID]int32),
		cntSP:   make(map[uint64]int32),
		cntPO:   make(map[uint64]int32),
		cntSO:   make(map[uint64]int32),
	}
}

// pairKey packs two 32-bit term IDs into one counter-map key.
func pairKey(a, b TermID) uint64 { return uint64(a)<<32 | uint64(b) }

// View is one user's knowledge base as an overlay over a SharedStore: a
// membership set of encoded TripleKeys plus per-view counters that answer
// every pattern-cardinality shape in O(1) for the SPARQL join orderer. A
// view holds no term strings and no dictionary — adding an already-encoded
// triple is a handful of small-key map updates, which is what makes belief
// imports cheap and keeps N views over one corpus at O(corpus) string
// memory.
//
// Safe for concurrent use. Every triple added to a view must be (and stay)
// acquired in the arena; the KB layer maintains that invariant.
type View struct {
	shared *SharedStore
	mu     sync.RWMutex

	members map[TripleKey]struct{}

	// Exact distinct-triple counters per pattern shape: single-position
	// (cntS/cntP/cntO) and pair-position (cntSP/cntPO/cntSO, packed keys).
	// SPO probes members; ??? is len(members).
	cntS, cntP, cntO    map[TermID]int32
	cntSP, cntPO, cntSO map[uint64]int32
}

// Add inserts an encoded triple into the view, reporting whether it was new.
func (v *View) Add(k TripleKey) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.addLocked(k)
}

// AddBatch inserts a batch of encoded triples under one lock acquisition,
// returning how many were new. This is the belief-import fast path: a bulk
// import into a fresh view (the common crowdsourcing shape) presizes the
// membership set and the pair-counter maps, so insertion never pays
// incremental map growth.
func (v *View) AddBatch(ks []TripleKey) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.members) == 0 && len(ks) > 64 {
		n := len(ks)
		v.members = make(map[TripleKey]struct{}, n)
		v.cntSP = make(map[uint64]int32, n)
		v.cntPO = make(map[uint64]int32, n)
		v.cntSO = make(map[uint64]int32, n)
	}
	added := 0
	for _, k := range ks {
		if v.addLocked(k) {
			added++
		}
	}
	return added
}

func (v *View) addLocked(k TripleKey) bool {
	if _, dup := v.members[k]; dup {
		return false
	}
	v.members[k] = struct{}{}
	v.cntS[k[0]]++
	v.cntP[k[1]]++
	v.cntO[k[2]]++
	v.cntSP[pairKey(k[0], k[1])]++
	v.cntPO[pairKey(k[1], k[2])]++
	v.cntSO[pairKey(k[0], k[2])]++
	return true
}

// Remove deletes an encoded triple from the view, reporting whether it was
// present.
func (v *View) Remove(k TripleKey) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, ok := v.members[k]; !ok {
		return false
	}
	delete(v.members, k)
	dec(v.cntS, k[0])
	dec(v.cntP, k[1])
	dec(v.cntO, k[2])
	dec(v.cntSP, pairKey(k[0], k[1]))
	dec(v.cntPO, pairKey(k[1], k[2]))
	dec(v.cntSO, pairKey(k[0], k[2]))
	return true
}

// dec decrements a counter entry, deleting it at zero so counter maps never
// accumulate dead keys.
func dec[K comparable](m map[K]int32, k K) {
	if m[k] <= 1 {
		delete(m, k)
		return
	}
	m[k]--
}

// Has reports whether the view holds the encoded triple.
func (v *View) Has(k TripleKey) bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	_, ok := v.members[k]
	return ok
}

// Len returns the number of triples in the view.
func (v *View) Len() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.members)
}

// countIDsLocked answers every pattern shape from the per-view counters in
// O(1). Counts are exact (distinct triples in the view).
func (v *View) countIDsLocked(p PatternIDs) int {
	sb, pb, ob := p.S != 0, p.P != 0, p.O != 0
	switch {
	case sb && pb && ob:
		if _, ok := v.members[TripleKey{p.S, p.P, p.O}]; ok {
			return 1
		}
		return 0
	case sb && pb:
		return int(v.cntSP[pairKey(p.S, p.P)])
	case pb && ob:
		return int(v.cntPO[pairKey(p.P, p.O)])
	case sb && ob:
		return int(v.cntSO[pairKey(p.S, p.O)])
	case sb:
		return int(v.cntS[p.S])
	case pb:
		return int(v.cntP[p.P])
	case ob:
		return int(v.cntO[p.O])
	default:
		return len(v.members)
	}
}

// matchIDsLocked streams the view's triples matching the pattern. For bound
// patterns it iterates the cheaper side: the shared posting list filtered by
// view membership when the arena-wide cardinality is smaller than the view,
// or the view membership set filtered by the pattern otherwise. The caller
// holds both the view and the arena read locks.
//
// Cost is O(min(shared posting list, view size)) candidates per probe, not
// O(results) — the deliberate trade against per-view permutation indexes,
// which would cost O(view) extra maps per user and defeat the shared-memory
// design. Join probes bind positions from the outer row, so their shared
// posting lists are small; the worst case (a pattern unselective in both
// the arena and the view) degrades to one membership/pattern test per
// candidate, a small constant over the arena's native scan.
func (v *View) matchIDsLocked(p PatternIDs, fn func(si, pi, oi TermID) bool) {
	sb, pb, ob := p.S != 0, p.P != 0, p.O != 0
	switch {
	case sb && pb && ob:
		if _, ok := v.members[TripleKey{p.S, p.P, p.O}]; ok {
			fn(p.S, p.P, p.O)
		}
		return
	case !sb && !pb && !ob:
		for k := range v.members {
			if !fn(k[0], k[1], k[2]) {
				return
			}
		}
		return
	}
	if v.shared.countIDs(p) < len(v.members) {
		v.shared.matchIDs(p, func(a, b, c TermID) bool {
			if _, ok := v.members[TripleKey{a, b, c}]; !ok {
				return true
			}
			return fn(a, b, c)
		})
		return
	}
	for k := range v.members {
		if (!sb || k[0] == p.S) && (!pb || k[1] == p.P) && (!ob || k[2] == p.O) {
			if !fn(k[0], k[1], k[2]) {
				return
			}
		}
	}
}

// viewReader implements IDReader over the overlay without per-call locking;
// the enclosing ReadIDs holds the view and arena read locks.
type viewReader struct{ v *View }

func (r viewReader) ForEachIDs(p PatternIDs, fn func(s, p, o TermID) bool) {
	r.v.matchIDsLocked(p, fn)
}
func (r viewReader) CountIDs(p PatternIDs) int     { return r.v.countIDsLocked(p) }
func (r viewReader) TermOf(id TermID) (Term, bool) { return r.v.shared.dict.TermOf(id) }
func (r viewReader) IDOf(t Term) (TermID, bool)    { return r.v.shared.dict.IDOf(t) }

// ReadIDs runs fn as one read transaction over the overlay: the view and
// arena read locks are acquired once and every IDReader call inside fn is
// lock-free. This is the transaction the streaming SPARQL executor opens
// per query; concurrent transactions over distinct users' views share the
// arena read lock and proceed in parallel.
func (v *View) ReadIDs(fn func(IDReader)) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	v.shared.mu.RLock()
	defer v.shared.mu.RUnlock()
	fn(viewReader{v})
}

var _ Graph = (*SharedStore)(nil)
var _ Graph = (*View)(nil)
