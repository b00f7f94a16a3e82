package kb

// This file implements the platform's binary snapshot, the one format that
// persists the whole semantic platform (durability for the semantic side of
// the paper's architecture: core images, write-ahead-log compaction and the
// sesql shell's \savekb/\loadkb all go through it). Snapshot serialises
// the encoded layer directly: the shared arena's dictionary and TripleKeys,
// each user's view membership set, and the statement/believer metadata on
// top. Restore is a bulk ID-level load: triples and view members come
// back as integer keys (the arena gives each triple an ordinal, a view
// sets that ordinal's bit), statement triples decode from the restored
// dictionary, and nothing is parsed or re-hashed per triple. The
// wire primitives are rdf's snapshot codec (rdf.SnapshotEncoder/Decoder),
// so the two layers cannot fork the format.
//
// The stream is versioned (snapshotMagic + snapshotVersion); decoding an
// unknown version fails loudly so format evolutions stay explicit.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"crosse/internal/rdf"
	"crosse/internal/sparql"
)

// snapshotMagic identifies a platform snapshot stream; snapshotVersion is
// the current format revision.
const (
	snapshotMagic   = "CROSSEKB"
	snapshotVersion = 1
)

// decoder layers user-name interning over the rdf snapshot decoder: a
// restored platform references each name string once, as the live one does,
// so per-statement owner/believer reads are allocation-free after the first
// occurrence.
type decoder struct {
	*rdf.SnapshotDecoder
	names map[string]string
}

func (d *decoder) name() (string, error) {
	buf, err := d.Bytes()
	if err != nil {
		return "", err
	}
	if s, ok := d.names[string(buf)]; ok { // keyed lookup: no allocation
		return s, nil
	}
	s := string(buf)
	d.names[s] = s
	return s, nil
}

// Snapshot writes the platform's full state in the binary snapshot format:
// the shared arena (dictionary + asserted TripleKeys + refcounts), each
// user's view membership set, every statement with its provenance, believers
// and optional reference, the stored-query registry and the vocabulary
// declarations. The write is one consistent point in time: it holds the
// platform read lock, which every mutator excludes.
func (p *Platform) Snapshot(w io.Writer) error {
	p.mu.RLock()
	defer p.mu.RUnlock()

	bw := bufio.NewWriter(w)
	enc := rdf.SnapshotEncoder{W: bw}
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	if err := enc.Uvarint(snapshotVersion); err != nil {
		return err
	}

	// Shared arena: dictionary + triples. Statement keys and view members
	// below reference the IDs serialised here.
	if err := p.shared.WriteSnapshot(bw); err != nil {
		return err
	}

	// Users and their overlay views, sorted for a deterministic stream.
	users := make([]string, 0, len(p.users))
	for u := range p.users {
		users = append(users, u)
	}
	sort.Strings(users)
	if err := enc.Uvarint(uint64(len(users))); err != nil {
		return err
	}
	for _, u := range users {
		if err := enc.String(u); err != nil {
			return err
		}
		if err := p.views[u].WriteSnapshot(bw); err != nil {
			return err
		}
	}

	// Statements in insertion order (the order Explore reports).
	if err := enc.Uvarint(uint64(len(p.statements))); err != nil {
		return err
	}
	var believers []string
	for _, st := range p.order {
		if st == nil {
			continue
		}
		if err := enc.String(st.ID); err != nil {
			return err
		}
		if err := enc.String(st.Owner); err != nil {
			return err
		}
		if err := enc.Key(st.key); err != nil {
			return err
		}
		if st.Ref == nil {
			if err := enc.Byte(0); err != nil {
				return err
			}
		} else {
			if err := enc.Byte(1); err != nil {
				return err
			}
			for _, s := range []string{st.Ref.Title, st.Ref.Author, st.Ref.Link, st.Ref.File} {
				if err := enc.String(s); err != nil {
					return err
				}
			}
		}
		believers = believers[:0]
		for u := range st.believers {
			believers = append(believers, u)
		}
		sort.Strings(believers)
		if err := enc.Uvarint(uint64(len(believers))); err != nil {
			return err
		}
		for _, u := range believers {
			if err := enc.String(u); err != nil {
				return err
			}
		}
	}
	if err := enc.Uvarint(uint64(p.nextID)); err != nil {
		return err
	}

	// Stored queries, sorted by registry key.
	qkeys := make([]string, 0, len(p.queries))
	for k := range p.queries {
		qkeys = append(qkeys, k)
	}
	sort.Strings(qkeys)
	if err := enc.Uvarint(uint64(len(qkeys))); err != nil {
		return err
	}
	for _, k := range qkeys {
		q := p.queries[k]
		for _, s := range []string{q.Owner, q.Name, q.Text} {
			if err := enc.String(s); err != nil {
				return err
			}
		}
	}

	// Vocabulary declarations, sorted by registry key.
	dkeys := make([]string, 0, len(p.decls))
	for k := range p.decls {
		dkeys = append(dkeys, k)
	}
	sort.Strings(dkeys)
	if err := enc.Uvarint(uint64(len(dkeys))); err != nil {
		return err
	}
	for _, k := range dkeys {
		d := p.decls[k]
		if err := enc.Byte(byte(d.Kind)); err != nil {
			return err
		}
		if err := enc.String(d.Name); err != nil {
			return err
		}
		if err := enc.String(d.Owner); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Restore rebuilds a platform from a stream written by Snapshot. The
// returned platform is fully live: views accept queries and mutations, the
// triple→statement index, arena refcounts and every user's view membership
// are validated against the statement/believer set, the statement counter
// must be at or above every issued "stmt-N" id (so Insert never reissues
// one), stored queries and declarations must belong to registered users,
// and stored queries are re-compiled so the registration invariant (only
// compilable queries are stored) survives the round trip.
//
// Equal believer sets are shared between restored statements under the
// copy-on-write discipline (believersShared), so a crowdsourced corpus
// believed by the same peers costs one set, not one per statement.
func Restore(r io.Reader) (*Platform, error) {
	br := bufio.NewReader(r)
	d := &decoder{SnapshotDecoder: &rdf.SnapshotDecoder{R: br}, names: map[string]string{}}
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("kb: read snapshot header: %w", err)
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("kb: not a platform snapshot (bad magic %q)", magic)
	}
	version, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if version != snapshotVersion {
		return nil, fmt.Errorf("kb: unsupported snapshot version %d (have %d)", version, snapshotVersion)
	}

	shared, err := rdf.ReadSharedSnapshot(br)
	if err != nil {
		return nil, fmt.Errorf("kb: restore arena: %w", err)
	}
	p := &Platform{
		users:      map[string]struct{}{},
		statements: map[string]*Statement{},
		shared:     shared,
		views:      map[string]*rdf.View{},
		byTriple:   map[rdf.TripleKey][]*Statement{},
		queries:    map[string]*StoredQuery{},
	}

	nUsers, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nUsers; i++ {
		name, err := d.name()
		if err != nil {
			return nil, err
		}
		if _, dup := p.users[name]; dup || name == "" {
			return nil, fmt.Errorf("kb: corrupt snapshot: bad user entry %q", name)
		}
		v, err := shared.ReadViewSnapshot(br)
		if err != nil {
			return nil, fmt.Errorf("kb: restore view of %q: %w", name, err)
		}
		p.users[name] = struct{}{}
		p.views[name] = v
	}

	nStmts, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	p.order = make([]*Statement, 0, rdf.PresizeHint(nStmts))
	// believed accumulates, per user, the distinct keys of statements the
	// user believes — the set the user's restored view must equal.
	believed := make(map[string]map[rdf.TripleKey]struct{}, len(p.users))
	for u := range p.users {
		believed[u] = map[rdf.TripleKey]struct{}{}
	}
	belPool := map[string]map[string]struct{}{} // length-prefixed-names key → shared set
	var belNames []string
	var belKey []byte
	maxSeq, maxID := 0, "" // the highest issued id, which the counter must reach
	for i := uint64(0); i < nStmts; i++ {
		id, err := d.String()
		if err != nil {
			return nil, err
		}
		owner, err := d.name()
		if err != nil {
			return nil, err
		}
		key, err := d.Key()
		if err != nil {
			return nil, err
		}
		triple, ok := shared.DecodeTriple(key)
		if !ok {
			return nil, fmt.Errorf("kb: corrupt snapshot: statement %q has undecodable key %v", id, key)
		}
		hasRef, err := d.Byte()
		if err != nil {
			return nil, err
		}
		var ref *Reference
		switch hasRef {
		case 0:
		case 1:
			ref = &Reference{}
			for _, dst := range []*string{&ref.Title, &ref.Author, &ref.Link, &ref.File} {
				if *dst, err = d.String(); err != nil {
					return nil, err
				}
			}
		default:
			return nil, fmt.Errorf("kb: corrupt snapshot: statement %q has reference tag %d", id, hasRef)
		}
		nBel, err := d.Uvarint()
		if err != nil {
			return nil, err
		}
		belNames = belNames[:0]
		belKey = belKey[:0]
		for j := uint64(0); j < nBel; j++ {
			u, err := d.name()
			if err != nil {
				return nil, err
			}
			if _, known := p.users[u]; !known {
				return nil, fmt.Errorf("kb: corrupt snapshot: statement %q believed by unknown user %q", id, u)
			}
			belNames = append(belNames, u)
			believed[u][key] = struct{}{}
			// Length-prefixed so names cannot collide across boundaries.
			belKey = binary.AppendUvarint(belKey, uint64(len(u)))
			belKey = append(belKey, u...)
		}
		believers, ok := belPool[string(belKey)] // keyed lookup: no allocation
		if !ok {
			believers = make(map[string]struct{}, len(belNames))
			for _, u := range belNames {
				believers[u] = struct{}{}
			}
			if len(believers) != len(belNames) {
				return nil, fmt.Errorf("kb: corrupt snapshot: statement %q repeats a believer", id)
			}
			belPool[string(belKey)] = believers
		}
		if _, owns := believers[owner]; !owns {
			return nil, fmt.Errorf("kb: corrupt snapshot: statement %q owner %q is not a believer", id, owner)
		}
		if _, dup := p.statements[id]; dup {
			return nil, fmt.Errorf("kb: corrupt snapshot: duplicate statement id %q", id)
		}
		if seq := statementSeq(id); seq > maxSeq {
			maxSeq, maxID = seq, id
		}
		st := &Statement{ID: id, Triple: triple, Owner: owner, Ref: ref, key: key, believers: believers}
		// The set may be shared with other restored statements; the next
		// mutation must copy it (same discipline as published snapshots).
		st.believersShared.Store(true)
		p.statements[id] = st
		p.appendOrder(st)
		p.byTriple[key] = append(p.byTriple[key], st)
	}
	// The arena's refcounts must agree with the statement set, or a future
	// owner Retract would deassert a triple other statements still hold.
	if shared.Len() != len(p.byTriple) {
		return nil, fmt.Errorf("kb: corrupt snapshot: arena holds %d triples, statements assert %d",
			shared.Len(), len(p.byTriple))
	}
	for key, sts := range p.byTriple {
		if shared.RefCount(key) != len(sts) {
			return nil, fmt.Errorf("kb: corrupt snapshot: triple %v asserted by %d statements but refcounted %d",
				key, len(sts), shared.RefCount(key))
		}
	}
	// Each view must hold exactly the keys of the statements its user
	// believes, or queries would disagree with Believers()/Retract.
	for u, keys := range believed {
		v := p.views[u]
		if v.Len() != len(keys) {
			return nil, fmt.Errorf("kb: corrupt snapshot: view of %q holds %d triples, beliefs imply %d",
				u, v.Len(), len(keys))
		}
		for k := range keys {
			if !v.Has(k) {
				return nil, fmt.Errorf("kb: corrupt snapshot: view of %q is missing believed triple %v", u, k)
			}
		}
	}

	next, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if next > math.MaxInt {
		return nil, fmt.Errorf("kb: corrupt snapshot: statement counter %d overflows", next)
	}
	if int(next) < maxSeq {
		return nil, fmt.Errorf("kb: corrupt snapshot: statement counter %d is below issued id %q", next, maxID)
	}
	p.nextID = int(next)

	nQueries, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nQueries; i++ {
		var owner, name, text string
		for _, dst := range []*string{&owner, &name, &text} {
			if *dst, err = d.String(); err != nil {
				return nil, err
			}
		}
		if name == "" {
			return nil, fmt.Errorf("kb: corrupt snapshot: stored query with empty name")
		}
		if _, known := p.users[owner]; owner != "" && !known {
			return nil, fmt.Errorf("kb: corrupt snapshot: stored query %q owned by unknown user %q", name, owner)
		}
		q, err := sparql.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("kb: restore query %q: %w", name, err)
		}
		if _, err := sparql.Compile(q); err != nil {
			return nil, fmt.Errorf("kb: restore query %q: %w", name, err)
		}
		key := queryKey(owner, name)
		if _, dup := p.queries[key]; dup {
			return nil, fmt.Errorf("kb: corrupt snapshot: duplicate stored query %q", name)
		}
		p.queries[key] = &StoredQuery{Name: name, Owner: owner, Text: text}
	}

	nDecls, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nDecls; i++ {
		kind, err := d.Byte()
		if err != nil {
			return nil, err
		}
		if DeclKind(kind) != DeclResource && DeclKind(kind) != DeclProperty {
			return nil, fmt.Errorf("kb: corrupt snapshot: declaration kind %d", kind)
		}
		name, err := d.String()
		if err != nil {
			return nil, err
		}
		owner, err := d.name()
		if err != nil {
			return nil, err
		}
		if name == "" {
			return nil, fmt.Errorf("kb: corrupt snapshot: empty declaration")
		}
		if _, known := p.users[owner]; !known {
			return nil, fmt.Errorf("kb: corrupt snapshot: declaration %q owned by unknown user %q", name, owner)
		}
		if p.decls == nil {
			p.decls = map[string]*Declaration{}
		}
		p.decls[DeclKind(kind).String()+"\x00"+name] = &Declaration{Name: name, Owner: owner, Kind: DeclKind(kind)}
	}
	return p, nil
}

// statementSeq returns N for an id "stmt-N" as Insert issues them, and 0
// for any other id.
func statementSeq(id string) int {
	digits, ok := strings.CutPrefix(id, "stmt-")
	if !ok || digits == "" || digits[0] < '1' || digits[0] > '9' {
		return 0 // no digits, a sign or a leading zero: not an issued id
	}
	n, err := strconv.Atoi(digits)
	if err != nil {
		return 0
	}
	return n
}
