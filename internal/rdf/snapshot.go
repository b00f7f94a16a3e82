package rdf

// This file implements the binary snapshot codec for the encoded layer: the
// dictionary term table, the shared arena's asserted triples (raw TripleKeys
// plus assertion refcounts), and per-view member keys. Restore is a bulk
// ID-level load: triples and view members are read back as integer keys,
// the arena gives each triple the next dense ordinal and its six posting
// slots, and a view sets one bit per member — no term parsing and no term
// re-hashing per triple. Ordinals are not part of the format, so a loaded
// arena is compact whatever the writer's free list held. Only the
// dictionary's intern maps are rebuilt, one string-hash per *distinct*
// term, which is O(dictionary), not O(triples).
//
// All integers are unsigned varints; strings are length-prefixed. The
// primitives (SnapshotEncoder / SnapshotDecoder) are exported so the
// embedding layers — internal/kb frames the platform stream, internal/core
// adds the image checksum — share one codec instead of forking the wire
// format.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
)

// SnapshotReader is the reader the snapshot decoder consumes: sequential
// byte-level access without read-ahead beyond what the caller hands over.
// *bufio.Reader and *bytes.Reader both satisfy it.
type SnapshotReader interface {
	io.Reader
	io.ByteReader
}

// errCorrupt tags every decode failure so callers can distinguish a damaged
// snapshot from an I/O error.
var errCorrupt = errors.New("rdf: corrupt snapshot")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCorrupt, fmt.Sprintf(format, args...))
}

// IsCorrupt reports whether err marks a structurally invalid snapshot (as
// opposed to an underlying I/O failure).
func IsCorrupt(err error) bool { return errors.Is(err, errCorrupt) }

// --- primitive encoding ---

// maxSnapshotString bounds a single decoded string so a corrupt length
// prefix cannot drive a multi-gigabyte allocation.
const maxSnapshotString = 64 << 20

// PresizeHint clamps a decoded element count to a sane preallocation size:
// maps and slices still grow to the real count, but a corrupt header cannot
// force an enormous up-front allocation.
func PresizeHint(n uint64) int {
	const limit = 1 << 22
	if n > limit {
		return limit
	}
	return int(n)
}

// SnapshotEncoder writes the snapshot wire primitives. It wraps a concrete
// *bufio.Writer rather than io.Writer so the per-integer scratch stays on
// the stack (through an interface it escapes — one heap allocation per
// varint). The owner of the bufio.Writer flushes.
type SnapshotEncoder struct {
	W *bufio.Writer
}

// Uvarint writes v as an unsigned varint.
func (e SnapshotEncoder) Uvarint(v uint64) error {
	for v >= 0x80 {
		if err := e.W.WriteByte(byte(v) | 0x80); err != nil {
			return err
		}
		v >>= 7
	}
	return e.W.WriteByte(byte(v))
}

// String writes a length-prefixed string.
func (e SnapshotEncoder) String(s string) error {
	if err := e.Uvarint(uint64(len(s))); err != nil {
		return err
	}
	_, err := e.W.WriteString(s)
	return err
}

// Byte writes one raw byte (tags and flags).
func (e SnapshotEncoder) Byte(b byte) error { return e.W.WriteByte(b) }

// Key writes an encoded triple key as three varints.
func (e SnapshotEncoder) Key(k TripleKey) error {
	for _, id := range k {
		if err := e.Uvarint(uint64(id)); err != nil {
			return err
		}
	}
	return nil
}

// SnapshotDecoder reads the snapshot wire primitives through one reusable
// scratch buffer, so each decoded string costs exactly its own allocation
// (the string conversion) instead of a throwaway byte slice per read.
type SnapshotDecoder struct {
	R       SnapshotReader
	scratch []byte
}

// Uvarint reads an unsigned varint.
func (d *SnapshotDecoder) Uvarint() (uint64, error) {
	var v uint64
	var shift uint
	for i := 0; i < 10; i++ {
		b, err := d.R.ReadByte()
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
		shift += 7
	}
	return 0, corruptf("varint overflow")
}

// Byte reads one raw byte (tags and flags).
func (d *SnapshotDecoder) Byte() (byte, error) {
	b, err := d.R.ReadByte()
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return b, err
}

// Bytes reads the next length-prefixed string into the scratch buffer. The
// returned slice is only valid until the next Bytes/String call.
func (d *SnapshotDecoder) Bytes() ([]byte, error) {
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > maxSnapshotString {
		return nil, corruptf("string length %d exceeds limit", n)
	}
	if uint64(cap(d.scratch)) < n {
		d.scratch = make([]byte, n)
	}
	buf := d.scratch[:n]
	if _, err := io.ReadFull(d.R, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

// String reads a length-prefixed string.
func (d *SnapshotDecoder) String() (string, error) {
	buf, err := d.Bytes()
	if err != nil {
		return "", err
	}
	return string(buf), nil
}

// Key reads an encoded triple key (three varints) without validating the
// IDs; use KeyInRange when a dictionary bound is known.
func (d *SnapshotDecoder) Key() (TripleKey, error) {
	var k TripleKey
	for i := range k {
		id, err := d.Uvarint()
		if err != nil {
			return k, err
		}
		k[i] = TermID(id)
	}
	return k, nil
}

// KeyInRange reads a triple key, validating every ID against the size of
// the dictionary it must decode under.
func (d *SnapshotDecoder) KeyInRange(dictLen int) (TripleKey, error) {
	k, err := d.Key()
	if err != nil {
		return k, err
	}
	for _, id := range k {
		if id == 0 || uint64(id) > uint64(dictLen) {
			return k, corruptf("triple term id %d out of range (dictionary has %d terms)", id, dictLen)
		}
	}
	return k, nil
}

// Term writes a term as kind tag + value, with the datatype appended for
// typed literals (same tag scheme as the dictionary table). The WAL op
// codec uses this for insert records, whose terms must travel as strings:
// dictionary IDs are assigned during replay, so a log record cannot
// reference them.
func (e SnapshotEncoder) Term(t Term) error {
	tag := byte(snapIRI)
	switch t.Kind {
	case Blank:
		tag = snapBlank
	case Literal:
		if t.Datatype == "" {
			tag = snapPlainLit
		} else {
			tag = snapTypedLit
		}
	}
	if err := e.Byte(tag); err != nil {
		return err
	}
	if err := e.String(t.Value); err != nil {
		return err
	}
	if tag == snapTypedLit {
		return e.String(t.Datatype)
	}
	return nil
}

// Term reads a term written by SnapshotEncoder.Term.
func (d *SnapshotDecoder) Term() (Term, error) {
	tag, err := d.Byte()
	if err != nil {
		return Term{}, err
	}
	value, err := d.String()
	if err != nil {
		return Term{}, err
	}
	switch tag {
	case snapIRI:
		return Term{Kind: IRI, Value: value}, nil
	case snapBlank:
		return Term{Kind: Blank, Value: value}, nil
	case snapPlainLit:
		return Term{Kind: Literal, Value: value}, nil
	case snapTypedLit:
		dt, err := d.String()
		if err != nil {
			return Term{}, err
		}
		// Records written before xsd:string literals were made plain may
		// still carry the datatype; NewTypedLiteral folds them back.
		return NewTypedLiteral(value, dt), nil
	default:
		return Term{}, corruptf("unknown term tag %d", tag)
	}
}

// asEncoder reuses the caller's *bufio.Writer or wraps w in a fresh one.
// The returned flush is a no-op for reused writers (the owner flushes) and
// a real Flush for wrapped ones.
func asEncoder(w io.Writer) (enc SnapshotEncoder, flush func() error) {
	if b, ok := w.(*bufio.Writer); ok {
		return SnapshotEncoder{W: b}, func() error { return nil }
	}
	b := bufio.NewWriter(w)
	return SnapshotEncoder{W: b}, b.Flush
}

// --- dictionary ---

// Term kind tags in the snapshot stream. Typed literals get their own tag so
// plain literals do not pay a datatype length byte.
const (
	snapIRI = iota
	snapBlank
	snapPlainLit
	snapTypedLit
)

// writeSnapshot serialises the term table in ID order, preceded by per-kind
// counts so the decoder can presize each intern map exactly.
func (d *Dict) writeSnapshot(enc SnapshotEncoder) error {
	for _, n := range []uint64{
		uint64(len(d.terms)),
		uint64(len(d.iris)),
		uint64(len(d.blanks)),
		uint64(len(d.plainLits)),
		uint64(len(d.typedLits)),
	} {
		if err := enc.Uvarint(n); err != nil {
			return err
		}
	}
	for _, t := range d.terms {
		var tag byte
		switch {
		case t.Kind == IRI:
			tag = snapIRI
		case t.Kind == Blank:
			tag = snapBlank
		case t.Datatype == "":
			tag = snapPlainLit
		default:
			tag = snapTypedLit
		}
		if err := enc.Byte(tag); err != nil {
			return err
		}
		if err := enc.String(t.Value); err != nil {
			return err
		}
		if tag == snapTypedLit {
			if err := enc.String(t.Datatype); err != nil {
				return err
			}
		}
	}
	return nil
}

// readDictSnapshot rebuilds a dictionary. Every issued ID is preserved
// (terms are stored in ID order), so TripleKeys serialised against the
// source dictionary decode identically against the restored one.
func readDictSnapshot(dec *SnapshotDecoder) (*Dict, error) {
	var counts [5]uint64
	for i := range counts {
		n, err := dec.Uvarint()
		if err != nil {
			return nil, err
		}
		counts[i] = n
	}
	total := counts[0]
	for _, n := range counts[1:] {
		if n > total {
			return nil, corruptf("dictionary kind count %d exceeds total %d", n, total)
		}
	}
	if counts[1]+counts[2]+counts[3]+counts[4] != total {
		return nil, corruptf("dictionary kind counts %v do not sum to %d", counts[1:], total)
	}
	d := &Dict{
		iris:      make(map[string]TermID, PresizeHint(counts[1])),
		blanks:    make(map[string]TermID, PresizeHint(counts[2])),
		plainLits: make(map[string]TermID, PresizeHint(counts[3])),
		typedLits: make(map[typedKey]TermID, PresizeHint(counts[4])),
		terms:     make([]Term, 0, PresizeHint(total)),
	}
	for i := uint64(0); i < total; i++ {
		tag, err := dec.Byte()
		if err != nil {
			return nil, err
		}
		value, err := dec.String()
		if err != nil {
			return nil, err
		}
		id := TermID(len(d.terms) + 1)
		switch tag {
		case snapIRI:
			d.terms = append(d.terms, Term{Kind: IRI, Value: value})
			d.iris[value] = id
		case snapBlank:
			d.terms = append(d.terms, Term{Kind: Blank, Value: value})
			d.blanks[value] = id
		case snapPlainLit:
			d.terms = append(d.terms, Term{Kind: Literal, Value: value})
			d.plainLits[value] = id
		case snapTypedLit:
			datatype, err := dec.String()
			if err != nil {
				return nil, err
			}
			d.terms = append(d.terms, Term{Kind: Literal, Value: value, Datatype: datatype})
			d.typedLits[typedKey{value, datatype}] = id
		default:
			return nil, corruptf("unknown term tag %d", tag)
		}
	}
	if uint64(len(d.iris)) != counts[1] || uint64(len(d.blanks)) != counts[2] ||
		uint64(len(d.plainLits)) != counts[3] || uint64(len(d.typedLits)) != counts[4] {
		return nil, corruptf("duplicate terms in dictionary")
	}
	return d, nil
}

// --- shared arena ---

// WriteSnapshot serialises the arena: the dictionary term table followed by
// every asserted triple, in ordinal order, as its raw TripleKey plus its
// assertion refcount. Ordinals themselves are not written. The stream
// captures a consistent point-in-time state (one read lock).
func (s *SharedStore) WriteSnapshot(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	enc, flush := asEncoder(w)
	if err := s.dict.writeSnapshot(enc); err != nil {
		return err
	}
	if err := enc.Uvarint(uint64(len(s.ords))); err != nil {
		return err
	}
	for o, k := range s.keys {
		if k[0] == 0 { // free ordinal
			continue
		}
		if err := enc.Key(k); err != nil {
			return err
		}
		if err := enc.Uvarint(uint64(s.meta[o].refs)); err != nil {
			return err
		}
	}
	return flush()
}

// ReadSharedSnapshot rebuilds an arena from a stream written by
// WriteSnapshot. The load is ID-level throughout: triples take dense
// ordinals in stream order, the key map and the ordinal tables are
// presized to the triple count, and posting insertion hashes only small
// integer keys, never term strings.
func ReadSharedSnapshot(r SnapshotReader) (*SharedStore, error) {
	dec := &SnapshotDecoder{R: r}
	dict, err := readDictSnapshot(dec)
	if err != nil {
		return nil, err
	}
	n, err := dec.Uvarint()
	if err != nil {
		return nil, err
	}
	s := &SharedStore{dict: dict, encStore: newEncStore(PresizeHint(n))}
	for i := uint64(0); i < n; i++ {
		k, err := dec.KeyInRange(dict.Len())
		if err != nil {
			return nil, err
		}
		refs, err := dec.Uvarint()
		if err != nil {
			return nil, err
		}
		if refs == 0 || refs > 1<<31-1 {
			return nil, corruptf("triple %v has invalid refcount %d", k, refs)
		}
		if _, fresh := s.acquire(k, int32(refs)); !fresh {
			return nil, corruptf("duplicate triple %v", k)
		}
	}
	return s, nil
}

// RefCount returns the arena's assertion refcount for an encoded triple
// (0 when the triple is not asserted). The KB layer uses it to validate that
// a restored snapshot's refcounts agree with its statement set.
func (s *SharedStore) RefCount(k TripleKey) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if o, ok := s.ords[k]; ok {
		return int(s.meta[o].refs)
	}
	return 0
}

// --- views ---

// WriteSnapshot serialises the view's members as raw TripleKeys, in
// ordinal order. The per-predicate counts are not written: the decoder
// rebuilds them in the same pass that sets the membership bits.
func (v *View) WriteSnapshot(w io.Writer) error {
	v.mu.RLock()
	defer v.mu.RUnlock()
	v.shared.mu.RLock()
	defer v.shared.mu.RUnlock()
	enc, flush := asEncoder(w)
	if err := enc.Uvarint(uint64(v.members.n)); err != nil {
		return err
	}
	var err error
	v.members.each(func(o uint32) bool {
		err = enc.Key(v.shared.keys[o])
		return err == nil
	})
	if err != nil {
		return err
	}
	return flush()
}

// ReadViewSnapshot rebuilds one overlay view over this arena from a stream
// written by View.WriteSnapshot. Every key is validated to be asserted in
// the arena (the invariant the KB layer maintains for live views) before
// its ordinal's bit is set.
func (s *SharedStore) ReadViewSnapshot(r SnapshotReader) (*View, error) {
	dec := &SnapshotDecoder{R: r}
	n, err := dec.Uvarint()
	if err != nil {
		return nil, err
	}
	v := s.NewView()
	s.mu.RLock()
	defer s.mu.RUnlock()
	dictLen := s.dict.Len()
	for i := uint64(0); i < n; i++ {
		k, err := dec.KeyInRange(dictLen)
		if err != nil {
			return nil, err
		}
		if _, asserted := s.ords[k]; !asserted {
			return nil, corruptf("view triple %v is not asserted in the arena", k)
		}
		if !v.addLocked(k) {
			return nil, corruptf("duplicate view triple %v", k)
		}
	}
	return v, nil
}
