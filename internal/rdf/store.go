package rdf

import (
	"sort"
	"sync"
)

// idSet is a third-level index entry: the set of IDs completing a triple.
type idSet map[TermID]struct{}

// TripleKey is a dictionary-encoded triple: the [subject, predicate, object]
// IDs issued by the owning dictionary. One 12-byte hash probe answers
// Has/duplicate-Add/exact-Count without walking three index levels, and the
// KB layer's overlay views (View) keep their whole membership state as sets
// of TripleKeys — no term strings, no per-view dictionary.
type TripleKey [3]TermID

// subIndex is one first-level entry of a three-level index: the second-level
// key → third-level set mapping, plus the total number of triples stored
// under this entry so Count answers S??/?P?/??O shapes in O(1) instead of
// enumerating.
type subIndex struct {
	m map[TermID]idSet
	n int
}

// index is a full three-level permutation index over encoded triples.
type index map[TermID]*subIndex

// add records an (a, b, c) entry. The caller has already established via the
// store's flat triple set that the entry is new.
func (idx index) add(a, b, c TermID) {
	s1, ok := idx[a]
	if !ok {
		s1 = &subIndex{m: make(map[TermID]idSet)}
		idx[a] = s1
	}
	s2, ok := s1.m[b]
	if !ok {
		s2 = make(idSet)
		s1.m[b] = s2
	}
	s2[c] = struct{}{}
	s1.n++
}

// del removes an (a, b, c) entry. The caller has already established via the
// store's flat triple set that the entry is present.
func (idx index) del(a, b, c TermID) {
	s1 := idx[a]
	s2 := s1.m[b]
	delete(s2, c)
	s1.n--
	if len(s2) == 0 {
		delete(s1.m, b)
		if len(s1.m) == 0 {
			delete(idx, a)
		}
	}
}

// encStore is the dictionary-free encoded core of a triple store: the flat
// TripleKey membership set plus the three permutation indexes. Store pairs
// one with a private Dict; SharedStore pairs one with the platform-wide
// shared Dict. It carries no lock — the embedding type's lock guards it.
type encStore struct {
	triples map[TripleKey]struct{} // flat membership set: dup/Has/exact-Count probes
	spo     index
	pos     index
	osp     index
}

func newEncStore() encStore {
	return encStore{
		triples: make(map[TripleKey]struct{}),
		spo:     make(index),
		pos:     make(index),
		osp:     make(index),
	}
}

// addKey inserts an encoded triple, reporting whether it was new.
func (c *encStore) addKey(k TripleKey) bool {
	if _, dup := c.triples[k]; dup {
		return false
	}
	c.triples[k] = struct{}{}
	c.spo.add(k[0], k[1], k[2])
	c.pos.add(k[1], k[2], k[0])
	c.osp.add(k[2], k[0], k[1])
	return true
}

// delKey removes an encoded triple, reporting whether it was present.
func (c *encStore) delKey(k TripleKey) bool {
	if _, ok := c.triples[k]; !ok {
		return false
	}
	delete(c.triples, k)
	c.spo.del(k[0], k[1], k[2])
	c.pos.del(k[1], k[2], k[0])
	c.osp.del(k[2], k[0], k[1])
	return true
}

// countIDs answers a pattern cardinality from index sizes in O(1). A
// never-issued (including synthetic) ID in any position yields 0.
func (c *encStore) countIDs(p PatternIDs) int {
	sb, pb, ob := p.S != 0, p.P != 0, p.O != 0
	switch {
	case sb && pb && ob:
		if _, ok := c.triples[TripleKey{p.S, p.P, p.O}]; ok {
			return 1
		}
		return 0
	case sb && pb:
		if s1, ok := c.spo[p.S]; ok {
			return len(s1.m[p.P])
		}
		return 0
	case pb && ob:
		if s1, ok := c.pos[p.P]; ok {
			return len(s1.m[p.O])
		}
		return 0
	case sb && ob:
		if s1, ok := c.osp[p.O]; ok {
			return len(s1.m[p.S])
		}
		return 0
	case sb:
		if s1, ok := c.spo[p.S]; ok {
			return s1.n
		}
		return 0
	case pb:
		if s1, ok := c.pos[p.P]; ok {
			return s1.n
		}
		return 0
	case ob:
		if s1, ok := c.osp[p.O]; ok {
			return s1.n
		}
		return 0
	default:
		return len(c.triples)
	}
}

// matchIDs streams encoded triples matching the pattern into fn without any
// term decoding; fn returning false stops the enumeration. This is the layer
// the term-level match API, the SPARQL executor's ID-native joins and the
// overlay views' shared-side iteration all sit on.
func (c *encStore) matchIDs(p PatternIDs, fn func(si, pi, oi TermID) bool) {
	sb, pb, ob := p.S != 0, p.P != 0, p.O != 0
	switch {
	case sb && pb && ob:
		if _, ok := c.triples[TripleKey{p.S, p.P, p.O}]; ok {
			fn(p.S, p.P, p.O)
		}
	case sb && pb:
		if s1, ok := c.spo[p.S]; ok {
			for o := range s1.m[p.P] {
				if !fn(p.S, p.P, o) {
					return
				}
			}
		}
	case pb && ob:
		if s1, ok := c.pos[p.P]; ok {
			for sub := range s1.m[p.O] {
				if !fn(sub, p.P, p.O) {
					return
				}
			}
		}
	case sb && ob:
		if s1, ok := c.osp[p.O]; ok {
			for pr := range s1.m[p.S] {
				if !fn(p.S, pr, p.O) {
					return
				}
			}
		}
	case sb:
		if s1, ok := c.spo[p.S]; ok {
			for pr, objs := range s1.m {
				for o := range objs {
					if !fn(p.S, pr, o) {
						return
					}
				}
			}
		}
	case pb:
		if s1, ok := c.pos[p.P]; ok {
			for o, subs := range s1.m {
				for sub := range subs {
					if !fn(sub, p.P, o) {
						return
					}
				}
			}
		}
	case ob:
		if s1, ok := c.osp[p.O]; ok {
			for sub, preds := range s1.m {
				for pr := range preds {
					if !fn(sub, pr, p.O) {
						return
					}
				}
			}
		}
	default:
		for sub, s1 := range c.spo {
			for pr, objs := range s1.m {
				for o := range objs {
					if !fn(sub, pr, o) {
						return
					}
				}
			}
		}
	}
}

// Store is an in-memory triple store with three full permutation indexes
// (SPO, POS, OSP) over dictionary-encoded terms, so that every triple-pattern
// shape resolves through an index rather than a scan and every pattern
// cardinality is answered from index sizes without enumeration. It is safe
// for concurrent use: reads take a shared lock, mutations an exclusive one.
// This is the CroSSE semantic platform's storage engine (the role Jena plays
// in the paper).
type Store struct {
	mu   sync.RWMutex
	dict *Dict
	encStore
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		dict:     NewDict(),
		encStore: newEncStore(),
	}
}

// Add inserts a triple. It reports whether the triple was new.
func (s *Store) Add(t Triple) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addLocked(t)
}

func (s *Store) addLocked(t Triple) bool {
	si, pi, oi := s.dict.Encode(t.S), s.dict.Encode(t.P), s.dict.Encode(t.O)
	return s.addKey(TripleKey{si, pi, oi})
}

// AddAll inserts a batch of triples under a single lock acquisition,
// returning how many were new.
func (s *Store) AddAll(ts []Triple) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	added := 0
	for _, t := range ts {
		if s.addLocked(t) {
			added++
		}
	}
	return added
}

// Remove deletes a triple. It reports whether the triple was present.
// Removed terms stay interned in the dictionary (IDs are never recycled).
func (s *Store) Remove(t Triple) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	si, okS := s.dict.Lookup(t.S)
	pi, okP := s.dict.Lookup(t.P)
	oi, okO := s.dict.Lookup(t.O)
	if !okS || !okP || !okO {
		return false
	}
	return s.delKey(TripleKey{si, pi, oi})
}

// Has reports whether the exact triple is in the store.
func (s *Store) Has(t Triple) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	si, okS := s.dict.Lookup(t.S)
	pi, okP := s.dict.Lookup(t.P)
	oi, okO := s.dict.Lookup(t.O)
	if !okS || !okP || !okO {
		return false
	}
	_, ok := s.triples[TripleKey{si, pi, oi}]
	return ok
}

// Len returns the number of triples.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.triples)
}

// PatternIDs is a triple pattern over dictionary-encoded terms: the zero
// TermID (reserved, never issued to a real term) acts as a wildcard. It is
// the unit of the store's ID-native match API, which the SPARQL executor
// joins on without decoding terms.
type PatternIDs struct {
	S, P, O TermID
}

// Match returns every triple matching the pattern. The index used is chosen
// by which positions are bound: S?? and SP? use SPO, ?P? and ?PO use POS,
// ??O and S?O use OSP, SPO uses a Has probe, and ??? enumerates SPO.
// Results are returned in unspecified order; use MatchSorted for stability.
func (s *Store) Match(p Pattern) []Triple {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Triple
	s.matchLocked(p, func(t Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// ForEach streams matching triples into fn; fn returning false stops early.
func (s *Store) ForEach(p Pattern, fn func(Triple) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.matchLocked(p, fn)
}

// Count returns the number of triples matching the pattern without
// materialising or enumerating them: every shape is answered from index
// sizes (sub-index counters for single-bound shapes, set lengths for
// double-bound ones), so the SPARQL join orderer can probe candidate
// patterns in O(1) regardless of store size.
func (s *Store) Count(p Pattern) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids, ok := s.dict.encodePattern(p)
	if !ok {
		return 0
	}
	return s.countIDs(ids)
}

func (s *Store) matchLocked(p Pattern, fn func(Triple) bool) {
	ids, ok := s.dict.encodePattern(p)
	if !ok {
		return
	}
	d := s.dict
	s.matchIDs(ids, func(a, b, c TermID) bool {
		return fn(Triple{d.Term(a), d.Term(b), d.Term(c)})
	})
}

// ForEachIDs streams encoded triples matching the ID pattern into fn; fn
// returning false stops early. No term is decoded. Each call acquires the
// read lock once; callers that issue many dependent probes (nested joins)
// should use ReadIDs instead to hold a single read transaction.
func (s *Store) ForEachIDs(p PatternIDs, fn func(si, pi, oi TermID) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.matchIDs(p, fn)
}

// CountIDs is Count over an already-encoded pattern: every shape is answered
// from index sizes in O(1).
func (s *Store) CountIDs(p PatternIDs) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.countIDs(p)
}

// TermOf decodes an ID issued by this store's dictionary.
func (s *Store) TermOf(id TermID) (Term, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dict.TermOf(id)
}

// IDOf returns the ID this store's dictionary has issued for the term, or
// false if the term has never been interned (in which case no triple of the
// store mentions it).
func (s *Store) IDOf(t Term) (TermID, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dict.IDOf(t)
}

// IDReader is the ID-native read surface handed out by ReadIDs: pattern
// matching, O(1) pattern counting and term↔ID translation over the store's
// dictionary-encoded indexes, valid for the duration of one read
// transaction. Every method is a pure read — the transaction's read lock
// blocks all writers for the reader's whole lifetime — so one reader is
// safe for concurrent use by the SPARQL executor's parallel workers.
// Implementations are NOT safe to retain after the ReadIDs callback
// returns.
type IDReader interface {
	// ForEachIDs streams encoded triples matching the pattern; fn returning
	// false stops early.
	ForEachIDs(p PatternIDs, fn func(s, p, o TermID) bool)
	// CountIDs returns the pattern's cardinality from index sizes.
	CountIDs(p PatternIDs) int
	// TermOf decodes an issued ID.
	TermOf(id TermID) (Term, bool)
	// IDOf resolves an interned term to its ID.
	IDOf(t Term) (TermID, bool)
}

// storeReader implements IDReader without per-call locking; the enclosing
// ReadIDs holds the store's read lock for the reader's whole lifetime.
type storeReader struct{ s *Store }

func (r storeReader) ForEachIDs(p PatternIDs, fn func(s, p, o TermID) bool) {
	r.s.matchIDs(p, fn)
}
func (r storeReader) CountIDs(p PatternIDs) int     { return r.s.countIDs(p) }
func (r storeReader) TermOf(id TermID) (Term, bool) { return r.s.dict.TermOf(id) }
func (r storeReader) IDOf(t Term) (TermID, bool)    { return r.s.dict.IDOf(t) }

// ReadIDs runs fn as one read transaction over the encoded layer: the
// store's read lock is acquired once and every IDReader call inside fn is
// lock-free. This is how the SPARQL executor evaluates a whole query —
// nested index probes per join row — without re-locking per probe and
// without the lock-order hazards of re-entrant RLock acquisition. fn must
// not call the store's own locked methods (Add, Match, Count, …).
func (s *Store) ReadIDs(fn func(IDReader)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	fn(storeReader{s})
}

// MatchSorted returns matching triples in deterministic order (by subject,
// predicate, object under Term.Compare). Useful for golden tests and stable
// exports.
func (s *Store) MatchSorted(p Pattern) []Triple {
	ts := s.Match(p)
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
	return ts
}

// Subjects returns the distinct subjects of triples matching (?, p, o).
func (s *Store) Subjects(p, o Term) []Term {
	s.mu.RLock()
	defer s.mu.RUnlock()
	pi, okP := s.dict.Lookup(p)
	oi, okO := s.dict.Lookup(o)
	if !okP || !okO {
		return nil
	}
	s1, ok := s.pos[pi]
	if !ok {
		return nil
	}
	set := s1.m[oi]
	out := make([]Term, 0, len(set))
	for sub := range set {
		out = append(out, s.dict.Term(sub))
	}
	return out
}

// Objects returns the distinct objects of triples matching (s, p, ?).
func (s *Store) Objects(sub, p Term) []Term {
	s.mu.RLock()
	defer s.mu.RUnlock()
	si, okS := s.dict.Lookup(sub)
	pi, okP := s.dict.Lookup(p)
	if !okS || !okP {
		return nil
	}
	s1, ok := s.spo[si]
	if !ok {
		return nil
	}
	set := s1.m[pi]
	out := make([]Term, 0, len(set))
	for o := range set {
		out = append(out, s.dict.Term(o))
	}
	return out
}

// Predicates returns the distinct predicates appearing in the store.
func (s *Store) Predicates() []Term {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Term, 0, len(s.pos))
	for p := range s.pos {
		out = append(out, s.dict.Term(p))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Value < out[j].Value })
	return out
}

// Clear removes every triple and resets the dictionary.
func (s *Store) Clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dict = NewDict()
	s.encStore = newEncStore()
}

// Graph is the read-only view the SPARQL engine evaluates against:
// *Store, *SharedStore (the union graph) and the KB layer's overlay
// per-user views implement it. The executor runs a whole query
// ID-natively under a single ReadIDs transaction.
type Graph interface {
	// ForEach streams triples matching the pattern; fn returning false
	// stops the enumeration early.
	ForEach(p Pattern, fn func(Triple) bool)
	// Count returns the number of triples matching the pattern (used for
	// join ordering).
	Count(p Pattern) int
	// ReadIDs runs fn as one lock-free-inside read transaction over the
	// encoded layer.
	ReadIDs(fn func(IDReader))
}

// IDGraph is Graph under its former name, for callers that still assert
// to it.
type IDGraph = Graph

var _ Graph = (*Store)(nil)
