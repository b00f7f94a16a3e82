package rdf

// This file implements the dictionary-encoding layer of the triple store.
// Every distinct Term a store has seen is interned once into a dense uint32
// ID, and the store's SPO/POS/OSP indexes are built on those IDs instead of
// full Term structs. This is the standard layout of production RDF engines:
// hashing a 4-byte integer is far cheaper than hashing a three-field struct
// with two strings, and index maps shrink (IDs instead of repeated term
// copies).

// TermID is a dense identifier for an interned Term. IDs are scoped to the
// Dict that issued them: the same term may have different IDs in different
// stores. ID 0 is reserved so the zero value never aliases a real term.
type TermID uint32

// Dict is a bidirectional Term ↔ TermID intern table. It is not safe for
// concurrent use on its own; the owning SharedStore guards it with its lock.
//
// typedKey identifies a typed literal without ambiguity: value and datatype
// stay separate fields, so no byte sequence in either can alias another term.
type typedKey struct {
	value, datatype string
}

// Internally terms are keyed per kind on their string value rather than on
// the full Term struct: hashing one string is measurably cheaper than Go's
// generated struct hash over (Kind, Value, Datatype), and the intern maps
// sit on the hot path of every Add and every bound-pattern probe. Typed
// literals — the only kind carrying a second string — live in their own map
// under a two-field struct key.
type Dict struct {
	iris      map[string]TermID
	blanks    map[string]TermID
	plainLits map[string]TermID
	typedLits map[typedKey]TermID
	terms     []Term // terms[id-1] is the term for id; ids are dense from 1
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{
		iris:      make(map[string]TermID),
		blanks:    make(map[string]TermID),
		plainLits: make(map[string]TermID),
		typedLits: make(map[typedKey]TermID),
	}
}

// kindMap returns the intern map for terms keyed on their value alone; typed
// literals are handled separately by Encode/Lookup.
func (d *Dict) kindMap(t Term) map[string]TermID {
	switch t.Kind {
	case IRI:
		return d.iris
	case Blank:
		return d.blanks
	default:
		return d.plainLits
	}
}

// Encode interns the term, returning its ID (allocating a new one for a term
// never seen before). Terms are never released: an arena's dictionary only
// grows, which keeps IDs stable for the life of the arena.
func (d *Dict) Encode(t Term) TermID {
	if t.Kind == Literal && t.Datatype != "" {
		key := typedKey{t.Value, t.Datatype}
		if id, ok := d.typedLits[key]; ok {
			return id
		}
		d.terms = append(d.terms, t)
		id := TermID(len(d.terms))
		d.typedLits[key] = id
		return id
	}
	m := d.kindMap(t)
	if id, ok := m[t.Value]; ok {
		return id
	}
	d.terms = append(d.terms, t)
	id := TermID(len(d.terms))
	m[t.Value] = id
	return id
}

// IDOf returns the ID of an already-interned term without interning it.
// The second result is false when the term has never been seen; callers use
// that as an immediate "no matches" answer for bound pattern positions.
func (d *Dict) IDOf(t Term) (TermID, bool) {
	if t.Kind == Literal && t.Datatype != "" {
		id, ok := d.typedLits[typedKey{t.Value, t.Datatype}]
		return id, ok
	}
	id, ok := d.kindMap(t)[t.Value]
	return id, ok
}

// TermOf returns the term for an ID, reporting whether the ID was ever
// issued. The zero TermID (reserved, never issued) always reports false,
// and so do IDs no dictionary issued, such as the SPARQL executor's
// synthetic constants.
func (d *Dict) TermOf(id TermID) (Term, bool) {
	// Compare in uint64 so IDs near the top of the uint32 range (the SPARQL
	// executor's synthetic constants) stay out of range on 32-bit platforms
	// instead of wrapping negative through int.
	if id == 0 || uint64(id) > uint64(len(d.terms)) {
		return Term{}, false
	}
	return d.terms[id-1], true
}

// Len returns the number of interned terms.
func (d *Dict) Len() int { return len(d.terms) }
