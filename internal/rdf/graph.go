package rdf

import "sort"

// PatternIDs is a triple pattern over dictionary-encoded terms: the zero
// TermID (reserved, never issued to a real term) acts as a wildcard. It is
// the unit of the ID-native match API, which the SPARQL executor joins on
// without decoding terms.
type PatternIDs struct {
	S, P, O TermID
}

// IDReader is the ID-native read surface handed out by ReadIDs: pattern
// matching, exact pattern counting and term↔ID translation over the
// arena's dictionary-encoded indexes, valid for the duration of one read
// transaction. Every method is a pure read — the transaction's read locks
// block all writers for the reader's whole lifetime — so one reader is
// safe for concurrent use by the SPARQL executor's parallel workers.
// Implementations are NOT safe to retain after the ReadIDs callback
// returns.
type IDReader interface {
	// ForEachIDs streams encoded triples matching the pattern; fn returning
	// false stops early.
	ForEachIDs(p PatternIDs, fn func(s, p, o TermID) bool)
	// CountIDs returns the pattern's exact cardinality: the arena reads
	// a posting's length, a view counts along the shorter of the arena's
	// posting and its own set bits.
	CountIDs(p PatternIDs) int
	// TermOf decodes an issued ID.
	TermOf(id TermID) (Term, bool)
	// IDOf resolves an interned term to its ID.
	IDOf(t Term) (TermID, bool)
}

// Graph is the read-only surface the SPARQL engine and every term-level
// reader evaluate against: *SharedStore (the union graph) and *View (one
// user's knowledge base) implement it. ReadIDs runs fn as one read
// transaction over the encoded layer: the locks are acquired once, every
// IDReader call inside fn is lock-free, and fn must not call a locked
// method of the graph (Add, AcquireTriple, or one of the package functions
// below). The executor runs a whole query ID-natively under one ReadIDs.
type Graph interface {
	ReadIDs(fn func(IDReader))
}

// IDGraph is Graph under its former name, for callers that still assert
// to it.
type IDGraph = Graph

// The term-level reads below are written once over ReadIDs, so each takes
// the graph's read locks for its whole run. A bound term the dictionary
// has never interned matches nothing.

// ForEach streams g's triples matching the pattern into fn; fn returning
// false stops early. fn runs inside the read transaction.
func ForEach(g Graph, p Pattern, fn func(Triple) bool) {
	g.ReadIDs(func(r IDReader) {
		ids, ok := resolve(r, p)
		if !ok {
			return
		}
		r.ForEachIDs(ids, func(s, pr, o TermID) bool {
			return fn(Triple{term(r, s), term(r, pr), term(r, o)})
		})
	})
}

// Count returns the exact number of g's triples matching the pattern (see
// IDReader.CountIDs).
func Count(g Graph, p Pattern) int {
	n := 0
	g.ReadIDs(func(r IDReader) {
		if ids, ok := resolve(r, p); ok {
			n = r.CountIDs(ids)
		}
	})
	return n
}

// MatchSorted returns g's triples matching the pattern in deterministic
// order (by subject, predicate, object under Term.Compare), for golden
// tests and stable exports.
func MatchSorted(g Graph, p Pattern) []Triple {
	var ts []Triple
	ForEach(g, p, func(t Triple) bool {
		ts = append(ts, t)
		return true
	})
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
	return ts
}

// Subjects returns the subjects of g's triples matching (?, p, o).
func Subjects(g Graph, p, o Term) []Term {
	var out []Term
	ForEach(g, Pattern{P: p, O: o}, func(t Triple) bool {
		out = append(out, t.S)
		return true
	})
	return out
}

// Objects returns the objects of g's triples matching (s, p, ?).
func Objects(g Graph, s, p Term) []Term {
	var out []Term
	ForEach(g, Pattern{S: s, P: p}, func(t Triple) bool {
		out = append(out, t.O)
		return true
	})
	return out
}

// resolve encodes the bound positions of a term-level pattern without
// interning anything. ok is false when a bound term was never interned.
func resolve(r IDReader, p Pattern) (ids PatternIDs, ok bool) {
	ok = true
	if !p.S.IsZero() {
		if ids.S, ok = r.IDOf(p.S); !ok {
			return
		}
	}
	if !p.P.IsZero() {
		if ids.P, ok = r.IDOf(p.P); !ok {
			return
		}
	}
	if !p.O.IsZero() {
		ids.O, ok = r.IDOf(p.O)
	}
	return
}

// term decodes an ID taken from an index walk, which is always issued.
func term(r IDReader, id TermID) Term {
	t, _ := r.TermOf(id)
	return t
}
