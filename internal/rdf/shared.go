package rdf

// This file implements the shared-dictionary overlay layer: one SharedStore
// holds the platform-wide dictionary plus refcounted union postings over
// every asserted triple, each under a dense uint32 ordinal, and each user's
// knowledge base is a View — an overlay holding only compact ID-level
// state: a paged bitset of arena ordinals and one triple count per
// predicate. A corpus believed by N users is interned and indexed once;
// each extra believer costs one bit per triple, never term strings. The
// arena and each view implement Graph, so the streaming SPARQL executor,
// the enrichment pipeline and the term-level package functions (ForEach,
// Count, …) read both the same way.
//
// Concurrency discipline: the arena and each view carry their own RWMutex,
// and the lock order is view → arena. Readers (View.ReadIDs, and through it
// every term-level read of a view) take the view read lock, then the arena
// read lock, once per transaction, and run lock-free inside. View mutators
// (Add, AddBatch, Remove) take the view write lock, then the arena read
// lock to translate keys to ordinals. Arena mutators (AcquireTriple,
// Release) take only the arena lock and never a view's, so there is no
// lock-order cycle, and an in-flight read transaction holds off every
// mutator of what it reads.
//
// Ordinals are recycled: a released triple's ordinal goes to the next new
// triple. A view must therefore drop a triple before its last Release —
// the KB layer removes a statement's key from every believer's view before
// it releases the statement — or the view would come to hold whichever
// triple reuses the ordinal.

import "sync"

// SharedStore is the platform-wide encoded triple arena: one dictionary and
// one set of SPO/POS/OSP union postings over every triple asserted by any
// statement, with a per-triple assertion refcount kept by ordinal. It is
// safe for concurrent use and itself implements Graph (the union graph).
// It is the only triple store: a graph that no user owns is an arena that
// nothing ever releases from.
type SharedStore struct {
	mu   sync.RWMutex
	dict *Dict
	encStore
}

// NewSharedStore returns an empty arena.
func NewSharedStore() *SharedStore {
	return &SharedStore{dict: NewDict(), encStore: newEncStore(0)}
}

// AcquireTriple interns and asserts the triple in one step, returning its
// key. Each call adds one assertion reference; the triple gets an ordinal
// and enters the union postings on its first reference.
func (s *SharedStore) AcquireTriple(t Triple) TripleKey {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := TripleKey{s.dict.Encode(t.S), s.dict.Encode(t.P), s.dict.Encode(t.O)}
	s.acquire(k, 1)
	return k
}

// Release drops one assertion reference; on the last release the triple
// leaves the union postings and its ordinal is recycled (its terms stay
// interned — term IDs are never recycled). Every View must drop the triple
// before its last release: a view holding a released triple's ordinal
// would come to hold whichever triple reuses it.
func (s *SharedStore) Release(k TripleKey) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.release(k)
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
	return len(s.ords)
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
	return &View{shared: s, cntP: make(map[TermID]int32)}
}

// View is one user's knowledge base as an overlay over a SharedStore: a
// paged bitset of the arena ordinals it holds plus its triple count per
// predicate. A view holds no term strings and no dictionary — adding an
// already-asserted triple sets one bit and bumps one predicate count,
// which is what makes belief imports cheap and keeps N views over one
// corpus at O(corpus) string memory.
//
// Safe for concurrent use. A view can hold only triples the arena asserts:
// Add and AddBatch skip a key the arena does not assert (it has no
// ordinal), and a held triple must stay acquired until the view drops it.
// The KB layer maintains both invariants.
type View struct {
	shared *SharedStore
	mu     sync.RWMutex

	members ordSet

	// cntP counts the view's triples per predicate: one entry per distinct
	// predicate, and the SPARQL planner counts ?P? at every activation.
	cntP map[TermID]int32
}

// Add inserts an encoded triple into the view, reporting whether it was
// new. A key the arena does not assert is not added, and Add reports false.
func (v *View) Add(k TripleKey) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.shared.mu.RLock()
	defer v.shared.mu.RUnlock()
	return v.addLocked(k)
}

// AddBatch inserts a batch of encoded triples under one lock acquisition,
// returning how many were new; like Add, it skips keys the arena does not
// assert. This is the belief-import fast path.
func (v *View) AddBatch(ks []TripleKey) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.shared.mu.RLock()
	defer v.shared.mu.RUnlock()
	added := 0
	for _, k := range ks {
		if v.addLocked(k) {
			added++
		}
	}
	return added
}

// addLocked adds an asserted key. The caller holds the view write lock and
// the arena read lock.
func (v *View) addLocked(k TripleKey) bool {
	o, ok := v.shared.ords[k]
	if !ok || !v.members.add(o) {
		return false
	}
	v.cntP[k[1]]++
	return true
}

// Remove deletes an encoded triple from the view, reporting whether it was
// present.
func (v *View) Remove(k TripleKey) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.shared.mu.RLock()
	defer v.shared.mu.RUnlock()
	o, ok := v.shared.ords[k]
	if !ok || !v.members.remove(o) {
		return false
	}
	if v.cntP[k[1]] <= 1 {
		delete(v.cntP, k[1]) // no dead keys accumulate
	} else {
		v.cntP[k[1]]--
	}
	return true
}

// Has reports whether the view holds the encoded triple.
func (v *View) Has(k TripleKey) bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	v.shared.mu.RLock()
	defer v.shared.mu.RUnlock()
	return v.hasLocked(k)
}

func (v *View) hasLocked(k TripleKey) bool {
	o, ok := v.shared.ords[k]
	return ok && v.members.has(o)
}

// Len returns the number of triples in the view.
func (v *View) Len() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.members.n
}

// countIDsLocked returns the exact number of the view's triples matching
// the pattern. SPO tests one bit, ??? is the bitset's population and ?P?
// is cntP; every other shape walks the cheaper side as matchIDsLocked
// does: the arena's posting, counting the ordinals whose bit is set, or
// the view's set bits, counting the triples the pattern matches. The
// caller holds both the view and the arena read locks.
func (v *View) countIDsLocked(p PatternIDs) int {
	a := &v.shared.encStore
	sb, pb, ob := p.S != 0, p.P != 0, p.O != 0
	switch {
	case sb && pb && ob:
		if v.hasLocked(TripleKey{p.S, p.P, p.O}) {
			return 1
		}
		return 0
	case !sb && !pb && !ob:
		return v.members.n
	case pb && !sb && !ob:
		return int(v.cntP[p.P])
	}
	n := 0
	if l, exact := a.posting(p); len(l) < v.members.n {
		for _, o := range l {
			if v.members.has(o) && (exact || p.matches(a.keys[o])) {
				n++
			}
		}
		return n
	}
	v.members.each(func(o uint32) bool {
		if p.matches(a.keys[o]) {
			n++
		}
		return true
	})
	return n
}

// matchIDsLocked streams the view's triples matching the pattern. For bound
// patterns it walks the cheaper side: the arena's posting for the pattern,
// keeping the ordinals whose bit is set, when the posting is shorter than
// the view, or else the view's set bits, keeping the triples the pattern
// matches. The caller holds both the view and the arena read locks.
//
// Cost is O(min(shared posting, view size)) candidates per probe, not
// O(results) — the deliberate trade against per-view permutation indexes,
// which would cost O(view) extra maps per user and defeat the shared-memory
// design. A posting candidate costs one bit test on the ordinal and a key
// load only when it is a member. Join probes bind positions from the outer
// row, so their postings are short; the worst case (a pattern unselective
// in both the arena and the view) walks the view's bits once.
func (v *View) matchIDsLocked(p PatternIDs, fn func(si, pi, oi TermID) bool) {
	a := &v.shared.encStore
	sb, pb, ob := p.S != 0, p.P != 0, p.O != 0
	switch {
	case sb && pb && ob:
		if v.hasLocked(TripleKey{p.S, p.P, p.O}) {
			fn(p.S, p.P, p.O)
		}
		return
	case !sb && !pb && !ob:
		v.members.each(func(o uint32) bool {
			k := a.keys[o]
			return fn(k[0], k[1], k[2])
		})
		return
	}
	if l, _ := a.posting(p); len(l) < v.members.n {
		for _, o := range l {
			if v.members.has(o) {
				if k := a.keys[o]; p.matches(k) && !fn(k[0], k[1], k[2]) {
					return
				}
			}
		}
		return
	}
	v.members.each(func(o uint32) bool {
		if k := a.keys[o]; p.matches(k) {
			return fn(k[0], k[1], k[2])
		}
		return true
	})
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
