package rdf

// TripleKey is a dictionary-encoded triple: the [subject, predicate, object]
// IDs issued by the owning dictionary. It is the triple's identity outside
// the arena: the KB layer stores it per statement, snapshots serialise it,
// and the arena maps it to the triple's ordinal with one 12-byte hash probe.
type TripleKey [3]TermID

// matches reports whether the key fits the pattern (0 binds nothing).
func (p PatternIDs) matches(k TripleKey) bool {
	return (p.S == 0 || p.S == k[0]) && (p.P == 0 || p.P == k[1]) && (p.O == 0 || p.O == k[2])
}

// Posting positions: each asserted triple sits in six postings, the
// one- and two-position prefixes of the SPO, POS and OSP permutations.
// ordMeta.at records the triple's index inside each of them.
const (
	atSPOa = iota // spo.byA[s]
	atSPOb        // spo.byAB[s,p]
	atPOSa        // pos.byA[p]
	atPOSb        // pos.byAB[p,o]
	atOSPa        // osp.byA[o]
	atOSPb        // osp.byAB[o,s]
	numPostings
)

// shortScan is the length up to which a pattern binding (a, b) scans the
// posting of a and filters on b instead of probing byAB. byA is a dense
// array indexed by term ID, so this read follows term IDs, which the
// dictionary issues in insertion order; a hashed pair probe lands anywhere
// in memory. A path walk over a chain steps through neighbouring IDs, and
// the pair probes were most of its time.
const shortScan = 8

// index is one permutation (a, b, c) of the triple positions as postings
// of arena ordinals: byA indexed by the first ID, byAB keyed by the packed
// first two. A pattern binding a or (a, b) is one lookup, and its
// cardinality is the posting's length.
type index struct {
	byA  [][]uint32
	byAB map[uint64][]uint32
}

// pairKey packs two 32-bit term IDs into one map key.
func pairKey(a, b TermID) uint64 { return uint64(a)<<32 | uint64(b) }

func newIndex() index { return index{byAB: make(map[uint64][]uint32)} }

// first returns the posting of a; a never-issued ID has none.
func (x *index) first(a TermID) []uint32 {
	if int(a) < len(x.byA) {
		return x.byA[a]
	}
	return nil
}

// pair returns a posting holding every ordinal under (a, b): exactly those
// when exact, or else a's short posting, which the caller filters on b.
func (x *index) pair(a, b TermID) (l []uint32, exact bool) {
	if l := x.first(a); len(l) <= shortScan {
		return l, false
	}
	return x.byAB[pairKey(a, b)], true
}

// add appends ordinal o to the postings of a and (a, b), recording its
// slots in at[0] and at[1].
func (x *index) add(a, b TermID, o uint32, at []uint32) {
	if n := int(a) + 1; n > len(x.byA) {
		x.byA = append(x.byA, make([][]uint32, n-len(x.byA))...)
	}
	at[0] = uint32(len(x.byA[a]))
	x.byA[a] = append(x.byA[a], o)
	ab := pairKey(a, b)
	at[1] = uint32(len(x.byAB[ab]))
	x.byAB[ab] = append(x.byAB[ab], o)
}

// ordMeta is the arena's per-ordinal bookkeeping beside its key: the
// assertion refcount (0 marks a free ordinal) and the ordinal's slot in
// each of its six postings, which lets a delete swap-remove in O(1).
type ordMeta struct {
	refs int32
	at   [numPostings]uint32
}

// encStore is the dictionary-free encoded core of the arena. Every
// asserted triple holds a dense uint32 ordinal: keys maps an ordinal back
// to its TripleKey, ords maps a key to its ordinal, and free recycles the
// ordinals of released triples. The SPO/POS/OSP indexes are postings of
// ordinals, so a view filters a shared posting with one bit test per
// candidate. SharedStore pairs it with the shared Dict. It carries no
// lock — SharedStore's lock guards it.
type encStore struct {
	ords map[TripleKey]uint32
	keys []TripleKey // ordinal → key; the zero key at a free ordinal
	meta []ordMeta   // ordinal → refcount and posting slots
	free []uint32    // released ordinals, reused before keys grows

	spo, pos, osp index
}

func newEncStore(n int) encStore {
	return encStore{
		ords: make(map[TripleKey]uint32, n),
		keys: make([]TripleKey, 0, n),
		meta: make([]ordMeta, 0, n),
		spo:  newIndex(),
		pos:  newIndex(),
		osp:  newIndex(),
	}
}

// acquire adds refs assertion references to k, giving a new triple an
// ordinal and entering it into the six postings. It returns the ordinal
// and whether the triple was new.
func (c *encStore) acquire(k TripleKey, refs int32) (uint32, bool) {
	if o, ok := c.ords[k]; ok {
		c.meta[o].refs += refs
		return o, false
	}
	var o uint32
	if n := len(c.free); n > 0 {
		o = c.free[n-1]
		c.free = c.free[:n-1]
		c.keys[o] = k
	} else {
		o = uint32(len(c.keys))
		c.keys = append(c.keys, k)
		c.meta = append(c.meta, ordMeta{})
	}
	c.ords[k] = o
	m := &c.meta[o]
	m.refs = refs
	c.spo.add(k[0], k[1], o, m.at[atSPOa:])
	c.pos.add(k[1], k[2], o, m.at[atPOSa:])
	c.osp.add(k[2], k[0], o, m.at[atOSPa:])
	return o, true
}

// release drops one assertion reference; on the last one the triple
// leaves its postings and its ordinal goes to the free list.
func (c *encStore) release(k TripleKey) {
	o, ok := c.ords[k]
	if !ok {
		return
	}
	if c.meta[o].refs > 1 {
		c.meta[o].refs--
		return
	}
	delete(c.ords, k)
	c.pull(&c.spo, k[0], k[1], o, atSPOa)
	c.pull(&c.pos, k[1], k[2], o, atPOSa)
	c.pull(&c.osp, k[2], k[0], o, atOSPa)
	c.keys[o] = TripleKey{}
	c.meta[o] = ordMeta{}
	c.free = append(c.free, o)
}

// pull removes ordinal o from x's postings of a and (a, b), whose slots
// are recorded at meta.at[at] and meta.at[at+1].
func (c *encStore) pull(x *index, a, b TermID, o uint32, at int) {
	x.byA[a] = c.swapOut(x.byA[a], o, at)
	ab := pairKey(a, b)
	if l := c.swapOut(x.byAB[ab], o, at+1); l != nil {
		x.byAB[ab] = l
	} else {
		delete(x.byAB, ab)
	}
}

// swapOut swap-removes ordinal o from posting l: the posting's last
// ordinal moves into o's slot, and its recorded slot follows it. An
// emptied posting comes back nil, so its array is freed.
func (c *encStore) swapOut(l []uint32, o uint32, at int) []uint32 {
	i, last := c.meta[o].at[at], l[len(l)-1]
	l[i] = last
	c.meta[last].at[at] = i
	if len(l) == 1 {
		return nil
	}
	return l[:len(l)-1]
}

// posting returns the ordinals for a pattern with one or two positions
// bound: exactly its matches when exact, or else a short superset that
// the caller filters with PatternIDs.matches.
func (c *encStore) posting(p PatternIDs) (l []uint32, exact bool) {
	switch {
	case p.S != 0 && p.P != 0:
		return c.spo.pair(p.S, p.P)
	case p.P != 0 && p.O != 0:
		return c.pos.pair(p.P, p.O)
	case p.S != 0 && p.O != 0:
		return c.osp.pair(p.O, p.S)
	case p.S != 0:
		return c.spo.first(p.S), true
	case p.P != 0:
		return c.pos.first(p.P), true
	default:
		return c.osp.first(p.O), true
	}
}

// countIDs answers a pattern cardinality with one lookup, plus a scan of
// at most shortScan keys when the posting is a short superset. A
// never-issued (including synthetic) ID in any position yields 0.
func (c *encStore) countIDs(p PatternIDs) int {
	sb, pb, ob := p.S != 0, p.P != 0, p.O != 0
	switch {
	case sb && pb && ob:
		if _, ok := c.ords[TripleKey{p.S, p.P, p.O}]; ok {
			return 1
		}
		return 0
	case !sb && !pb && !ob:
		return len(c.ords)
	}
	l, exact := c.posting(p)
	if exact {
		return len(l)
	}
	n := 0
	for _, o := range l {
		if p.matches(c.keys[o]) {
			n++
		}
	}
	return n
}

// matchIDs streams encoded triples matching the pattern into fn without any
// term decoding; fn returning false stops the enumeration. This is the layer
// the term-level match API and the SPARQL executor's ID-native joins over
// the union graph sit on.
func (c *encStore) matchIDs(p PatternIDs, fn func(si, pi, oi TermID) bool) {
	sb, pb, ob := p.S != 0, p.P != 0, p.O != 0
	switch {
	case sb && pb && ob:
		if _, ok := c.ords[TripleKey{p.S, p.P, p.O}]; ok {
			fn(p.S, p.P, p.O)
		}
	case !sb && !pb && !ob:
		for _, k := range c.keys {
			if k[0] != 0 && !fn(k[0], k[1], k[2]) { // the zero key marks a free ordinal
				return
			}
		}
	default:
		l, _ := c.posting(p)
		for _, o := range l {
			if k := c.keys[o]; p.matches(k) && !fn(k[0], k[1], k[2]) {
				return
			}
		}
	}
}
