package rdf

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

// encStore is the dictionary-free encoded core of the arena: the flat
// TripleKey membership set plus the three permutation indexes. SharedStore
// pairs it with the shared Dict. It carries no lock — SharedStore's lock
// guards it.
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
