// Package kb implements CroSSE's crowdsourced knowledge-base layer
// (Sec. III and Fig. 4): registered users insert RDF statements into a
// shared semantic platform, each statement carries its provenance (the
// user who inserted it) and the set of users who "accepted it as their
// own" (beliefs), optionally a bibliographic reference, and each user's
// personal knowledge base — the context her SESQL queries are evaluated
// in — is the set of statements she owns or believes.
//
// Storage architecture: the platform keeps ONE dictionary-encoded triple
// arena (rdf.SharedStore) holding every asserted triple, and each user's
// KB is an overlay view (rdf.View) over it — a bitset of the arena's
// triple ordinals plus a triple count per predicate, sharing the arena's
// dictionary and union postings. A crowdsourced corpus believed by N users
// is interned and indexed once; importing a belief sets a bit and bumps
// one predicate count, never a re-hash of term strings. A statement's
// key leaves every view before the arena releases it, because the arena
// recycles a released triple's ordinal. Views implement rdf.Graph, so
// SESQL enrichment and the streaming SPARQL executor evaluate against them
// ID-natively, and queries over distinct users' views run concurrently
// under shared read locks.
//
// The package supports the paper's three annotation scenarios:
//
//   - integrated annotation: the subject must be a concept extracted from
//     the original data source (validated through a concept checker);
//   - independent annotation: any triple may be inserted;
//   - crowdsourced annotation: users explore statements made public by
//     their peers and import (part of) them into their own KB.
//
// It also hosts the stored-SPARQL-query registry the paper's Example 4.5
// relies on (the `dangerQuery` property names a saved query rather than a
// stored triple property).
package kb

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"crosse/internal/rdf"
	"crosse/internal/sparql"
)

// Sentinel errors for conditions callers dispatch on (the REST layer maps
// them to HTTP statuses). They carry the message prefix, so wrapping them
// with the offending name via %w keeps the historical error texts.
var (
	// ErrUnknownUser marks operations naming a user that is not registered.
	ErrUnknownUser = errors.New("kb: unknown user")
	// ErrNoStatement marks operations naming a statement id that does not
	// exist (or no longer exists).
	ErrNoStatement = errors.New("kb: no statement")
)

// DupError marks rejected duplicate registrations (an existing user or
// stored-query name). The REST layer maps it to 409 Conflict.
type DupError struct{ msg string }

func (e *DupError) Error() string { return e.msg }

// SMG is the base IRI of the SmartGround ontology namespace.
const SMG = "http://smartground.eu/onto#"

// Reference is bibliographic/provenance metadata attached to a statement
// (smg:Reference in Fig. 4).
type Reference struct {
	Title  string
	Author string
	Link   string
	File   string // fileReference: user notes, pictures, reports, …
}

// Statement is one reified contextual assertion.
type Statement struct {
	ID     string
	Triple rdf.Triple
	Owner  string
	Ref    *Reference

	key       rdf.TripleKey // Triple encoded against the platform arena
	slot      int           // index in Platform.order
	believers map[string]struct{}

	// believersShared marks the believers map as published to a snapshot:
	// the next mutation must copy it instead of writing in place. Snapshots
	// set it under the platform read lock (hence atomic); mutators check
	// and clear it under the write lock. This is what lets a bulk import
	// run allocation-free: the per-statement copy-on-write clone happens
	// only when a snapshot actually shares the map, not on every mutation.
	believersShared atomic.Bool
}

// Believers returns the sorted user names that accepted this statement
// (the owner is always included).
func (s *Statement) Believers() []string {
	out := make([]string, 0, len(s.believers))
	for u := range s.believers {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// BelievedBy reports whether the user owns or has imported the statement.
func (s *Statement) BelievedBy(user string) bool {
	_, ok := s.believers[user]
	return ok
}

// snapshot returns a defensive copy of the statement whose believers set is
// detached from the platform's mutable state. Statement and Explore return
// snapshots so callers can hold them (and call Believers/BelievedBy) while
// Import/ImportFrom/Retract keep mutating the platform. Believers maps are
// copy-on-write: the snapshot shares the current map and flags it, and the
// next mutator installs a fresh copy instead of writing into the published
// one.
func (s *Statement) snapshot() *Statement {
	s.believersShared.Store(true)
	return &Statement{ID: s.ID, Triple: s.Triple, Owner: s.Owner, Ref: s.Ref,
		key: s.key, believers: s.believers}
}

// addBeliever records user's belief under the copy-on-write discipline:
// in-place when the map is private, via a fresh copy when a snapshot
// shares it. Caller holds the platform write lock.
func (s *Statement) addBeliever(user string) {
	if s.believersShared.Load() {
		s.believers = s.believersWith(user)
		s.believersShared.Store(false)
		return
	}
	s.believers[user] = struct{}{}
}

// removeBeliever is addBeliever's removal counterpart.
func (s *Statement) removeBeliever(user string) {
	if s.believersShared.Load() {
		s.believers = s.believersWithout(user)
		s.believersShared.Store(false)
		return
	}
	delete(s.believers, user)
}

// believersWith returns a copy of the statement's believers set with user
// added.
func (s *Statement) believersWith(user string) map[string]struct{} {
	c := make(map[string]struct{}, len(s.believers)+1)
	for u := range s.believers {
		c[u] = struct{}{}
	}
	c[user] = struct{}{}
	return c
}

// believersWithout is believersWith's removal counterpart.
func (s *Statement) believersWithout(user string) map[string]struct{} {
	c := make(map[string]struct{}, len(s.believers))
	for u := range s.believers {
		if u != user {
			c[u] = struct{}{}
		}
	}
	return c
}

// ConceptChecker validates that a subject is a concept extracted from the
// original data source (integrated annotation scenario). The CroSSE core
// wires this to a databank lookup through the resource mapping.
type ConceptChecker func(subject string) bool

// StoredQuery is a registered SPARQL query addressable by name from SESQL
// enrichment clauses (e.g. the paper's dangerQuery).
type StoredQuery struct {
	Name  string
	Owner string // empty = shared/global
	Text  string
}

// Platform is the semantic platform: users, statements, beliefs, stored
// queries, and per-user overlay KB views over one shared encoded arena.
// Safe for concurrent use.
type Platform struct {
	mu         sync.RWMutex
	users      map[string]struct{}
	statements map[string]*Statement
	order      []*Statement // statements in insertion order; nil at a retracted slot
	holes      int          // nil slots in order
	shared     *rdf.SharedStore
	views      map[string]*rdf.View
	byTriple   map[rdf.TripleKey][]*Statement // encoded triple → asserting statements
	queries    map[string]*StoredQuery        // key: owner + "\x00" + name
	decls      map[string]*Declaration        // key: kind + "\x00" + iri
	checker    ConceptChecker
	nextID     int

	// epochs counts, per user, the mutations that can change what that
	// user's enriched queries answer: inserts, imports, retractions and
	// owned stored-query registrations. globalEpoch counts mutations that
	// affect every user at once (shared stored-query registrations).
	// ViewEpoch folds the two into one monotonic number per user; the
	// serving tier keys its enriched-result cache on it, so a belief
	// mutation invalidates exactly the affected users' cache entries while
	// everyone else keeps serving hits.
	epochs      map[string]uint64
	globalEpoch uint64
}

// NewPlatform returns an empty platform.
func NewPlatform() *Platform {
	return &Platform{
		users:      map[string]struct{}{},
		statements: map[string]*Statement{},
		shared:     rdf.NewSharedStore(),
		views:      map[string]*rdf.View{},
		byTriple:   map[rdf.TripleKey][]*Statement{},
		queries:    map[string]*StoredQuery{},
	}
}

// ViewEpoch returns a monotonic counter that advances whenever a mutation
// may change the results of the user's enriched queries: her own inserts,
// imports and retractions, an owner retraction of a statement she believed,
// a stored-query registration in her namespace, and shared (ownerless)
// stored-query registrations. Epochs of an unknown user are 0. Read the
// epoch BEFORE evaluating a query that will be cached under it: a
// concurrent mutation then moves the epoch and the entry becomes
// unreachable, never stale.
func (p *Platform) ViewEpoch(user string) uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.globalEpoch + p.epochs[user]
}

// bumpView advances one user's view epoch. Caller holds the write lock.
func (p *Platform) bumpView(user string) {
	if p.epochs == nil {
		p.epochs = map[string]uint64{}
	}
	p.epochs[user]++
}

// SetConceptChecker installs the integrated-annotation validator.
func (p *Platform) SetConceptChecker(c ConceptChecker) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.checker = c
}

// RegisterUser adds a user. Registering an existing user is an error so
// callers notice identity typos.
func (p *Platform) RegisterUser(name string) error {
	if name == "" {
		return fmt.Errorf("kb: empty user name")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.users[name]; ok {
		return &DupError{msg: fmt.Sprintf("kb: user %q already registered", name)}
	}
	p.users[name] = struct{}{}
	p.views[name] = p.shared.NewView()
	return nil
}

// Users returns the sorted registered user names.
func (p *Platform) Users() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]string, 0, len(p.users))
	for u := range p.users {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

func (p *Platform) requireUser(name string) error {
	if _, ok := p.users[name]; !ok {
		return fmt.Errorf("%w %q", ErrUnknownUser, name)
	}
	return nil
}

// InsertOption customises statement insertion.
type InsertOption func(*insertOpts)

type insertOpts struct {
	ref        *Reference
	integrated bool
}

// WithReference attaches bibliographic metadata to the statement.
func WithReference(ref Reference) InsertOption {
	return func(o *insertOpts) { o.ref = &ref }
}

// InsertArgs is the resolved form of a set of InsertOptions. The
// write-ahead log records it instead of the opaque option closures so an
// insertion replays with exactly the arguments it was acknowledged with.
type InsertArgs struct {
	Ref        *Reference
	Integrated bool
}

// ResolveInsertOptions flattens options into their recordable form.
func ResolveInsertOptions(opts ...InsertOption) InsertArgs {
	var o insertOpts
	for _, opt := range opts {
		opt(&o)
	}
	return InsertArgs{Ref: o.ref, Integrated: o.integrated}
}

// Options converts the resolved arguments back to insertion options.
func (a InsertArgs) Options() []InsertOption {
	var opts []InsertOption
	if a.Ref != nil {
		opts = append(opts, WithReference(*a.Ref))
	}
	if a.Integrated {
		opts = append(opts, Integrated())
	}
	return opts
}

// Integrated marks the insertion as an integrated annotation: the subject
// must pass the platform's concept checker (i.e. be a concept shown by the
// main platform).
func Integrated() InsertOption {
	return func(o *insertOpts) { o.integrated = true }
}

// Insert adds a statement owned (and believed) by the user and returns its
// id. This is the independent annotation scenario unless Integrated() is
// given. The triple is interned and asserted once in the shared arena; the
// owner's view gains only its encoded key.
func (p *Platform) Insert(user string, t rdf.Triple, opts ...InsertOption) (string, error) {
	var o insertOpts
	for _, opt := range opts {
		opt(&o)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.requireUser(user); err != nil {
		return "", err
	}
	if o.integrated {
		if p.checker == nil {
			return "", fmt.Errorf("kb: integrated annotation requires a concept checker")
		}
		if !t.S.IsIRI() && !t.S.IsLiteral() {
			return "", fmt.Errorf("kb: integrated annotation subject must be a named concept")
		}
		if !p.checker(t.S.Value) {
			return "", fmt.Errorf("kb: %q is not a concept of the data source", t.S.Value)
		}
	}
	p.nextID++
	id := fmt.Sprintf("stmt-%d", p.nextID)
	key := p.shared.AcquireTriple(t)
	st := &Statement{
		ID:        id,
		Triple:    t,
		Owner:     user,
		Ref:       o.ref,
		key:       key,
		believers: map[string]struct{}{user: {}},
	}
	p.statements[id] = st
	p.appendOrder(st)
	p.byTriple[key] = append(p.byTriple[key], st)
	p.views[user].Add(key)
	p.bumpView(user)
	return id, nil
}

// Retract removes the user's belief in a statement; when the owner
// retracts, the statement itself disappears for everyone. The byTriple
// index makes the "does another believed statement assert this triple?"
// check O(statements asserting that triple) instead of a scan over the
// whole platform.
func (p *Platform) Retract(user, id string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.requireUser(user); err != nil {
		return err
	}
	st, ok := p.statements[id]
	if !ok {
		return fmt.Errorf("%w %q", ErrNoStatement, id)
	}
	if _, believes := st.believers[user]; !believes {
		return fmt.Errorf("kb: user %q does not hold statement %q", user, id)
	}
	if st.Owner == user {
		// Unlink the statement first so believesElsewhere doesn't see it as
		// a surviving assertion of the same triple.
		delete(p.statements, id)
		p.unlinkOrder(st)
		p.unlinkTriple(st)
		// An owner retraction changes every believer's KB, so every
		// believer's view epoch moves (their cached enriched results may
		// now be stale), not just the retracting owner's.
		for u := range st.believers {
			if !p.believesElsewhere(u, st.key) {
				p.views[u].Remove(st.key)
			}
			p.bumpView(u)
		}
		p.shared.Release(st.key)
		return nil
	}
	st.removeBeliever(user)
	if !p.believesElsewhere(user, st.key) {
		p.views[user].Remove(st.key)
	}
	p.bumpView(user)
	return nil
}

// appendOrder records a new statement at the end of the insertion order.
func (p *Platform) appendOrder(st *Statement) {
	st.slot = len(p.order)
	p.order = append(p.order, st)
}

// unlinkOrder drops a statement from the insertion order in O(1)
// amortised: its slot becomes a hole, and once holes are the majority the
// survivors are compacted in order and renumbered, so each compaction is
// paid for by the retractions since the last one.
func (p *Platform) unlinkOrder(st *Statement) {
	p.order[st.slot] = nil
	p.holes++
	if p.holes*2 <= len(p.order) {
		return
	}
	live := p.order[:0]
	for _, s := range p.order {
		if s != nil {
			s.slot = len(live)
			live = append(live, s)
		}
	}
	clear(p.order[len(live):])
	p.order, p.holes = live, 0
}

// unlinkTriple drops a statement from the triple→statements index by
// swap-remove: the order of a triple's statements carries no meaning.
func (p *Platform) unlinkTriple(st *Statement) {
	sts := p.byTriple[st.key]
	if len(sts) == 1 {
		delete(p.byTriple, st.key)
		return
	}
	i := slices.Index(sts, st)
	last := len(sts) - 1
	sts[i] = sts[last]
	sts[last] = nil
	p.byTriple[st.key] = sts[:last]
}

// believesElsewhere reports whether some surviving statement asserting the
// triple is believed by the user.
func (p *Platform) believesElsewhere(user string, key rdf.TripleKey) bool {
	for _, st := range p.byTriple[key] {
		if _, ok := st.believers[user]; ok {
			return true
		}
	}
	return false
}

// Import makes the user accept an existing statement as her own belief
// (crowdsourced annotation scenario). The statement's triple is already
// encoded, so the user's view gains a key — no term is re-interned.
func (p *Platform) Import(user, id string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.requireUser(user); err != nil {
		return err
	}
	st, ok := p.statements[id]
	if !ok {
		return fmt.Errorf("%w %q", ErrNoStatement, id)
	}
	if _, already := st.believers[user]; already {
		return nil
	}
	st.addBeliever(user)
	p.views[user].Add(st.key)
	p.bumpView(user)
	return nil
}

// ImportFrom imports every statement owned by fromUser that matches the
// optional filter. It returns the imported statement count. The whole
// batch is applied to the importing user's view under one view lock, and
// believer sets mutate copy-on-write only when a snapshot shares them, so
// a bulk import of an encoded corpus is a pure ID-level set operation.
func (p *Platform) ImportFrom(user, fromUser string, filter func(*Statement) bool) (int, error) {
	ids, err := p.ImportFromIDs(user, fromUser, filter)
	return len(ids), err
}

// ImportFromIDs is ImportFrom returning the ids of the statements actually
// imported, in insertion order. The write-ahead log records those ids
// rather than the filter (an arbitrary closure), so replaying the batch
// imports exactly the statements the original call did even if unrelated
// statements were inserted or retracted since.
func (p *Platform) ImportFromIDs(user, fromUser string, filter func(*Statement) bool) ([]string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.requireUser(user); err != nil {
		return nil, err
	}
	if err := p.requireUser(fromUser); err != nil {
		return nil, err
	}
	var ids []string
	var keys []rdf.TripleKey
	for _, st := range p.order {
		if st == nil || st.Owner != fromUser {
			continue
		}
		if filter != nil && !filter(st) {
			continue
		}
		if _, already := st.believers[user]; already {
			continue
		}
		st.addBeliever(user)
		ids = append(ids, st.ID)
		keys = append(keys, st.key)
	}
	if len(keys) > 0 {
		p.views[user].AddBatch(keys)
		p.bumpView(user)
	}
	return ids, nil
}

// Statement returns a snapshot of a statement by id. The snapshot's
// believers set is fixed at call time; later Import/Retract calls do not
// show through (re-fetch to observe them).
func (p *Platform) Statement(id string) (*Statement, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	st, ok := p.statements[id]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrNoStatement, id)
	}
	return st.snapshot(), nil
}

// Explore lists statement snapshots in insertion order; annotations are
// public (Sec. III-A), so every user sees everything. The filter may be nil;
// it runs under the platform lock against the live statement, so it must not
// call back into the platform.
func (p *Platform) Explore(filter func(*Statement) bool) []*Statement {
	p.mu.RLock()
	defer p.mu.RUnlock()
	var out []*Statement
	for _, st := range p.order {
		if st != nil && (filter == nil || filter(st)) {
			out = append(out, st.snapshot())
		}
	}
	return out
}

// View returns the user's personal knowledge base: the graph of triples
// she owns or has imported, as an overlay over the platform's shared
// arena. This is the context SESQL queries run in; the streaming SPARQL
// executor evaluates it ID-natively through rdf.Graph's ReadIDs.
func (p *Platform) View(user string) (rdf.Graph, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	v, ok := p.views[user]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownUser, user)
	}
	return v, nil
}

// ViewSize returns the triple count of the user's KB.
func (p *Platform) ViewSize(user string) int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if v, ok := p.views[user]; ok {
		return v.Len()
	}
	return 0
}

// Shared exposes the platform's shared encoded arena (the union graph over
// every asserted statement). Diagnostics and platform-wide tooling read it;
// per-user query evaluation always goes through View.
func (p *Platform) Shared() *rdf.SharedStore {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.shared
}

// --- stored SPARQL queries ---

func queryKey(owner, name string) string { return owner + "\x00" + name }

// RegisterQuery saves a named SPARQL query. owner "" makes it shared.
// The text is parsed and compiled eagerly so registration fails fast on
// syntax errors and on plan-time errors such as invalid constant regex()
// patterns.
func (p *Platform) RegisterQuery(owner, name, text string) error {
	if name == "" {
		return fmt.Errorf("kb: empty query name")
	}
	q, err := sparql.Parse(text)
	if err != nil {
		return fmt.Errorf("kb: query %q: %w", name, err)
	}
	if _, err := sparql.Compile(q); err != nil {
		return fmt.Errorf("kb: query %q: %w", name, err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if owner != "" {
		if err := p.requireUser(owner); err != nil {
			return err
		}
	}
	key := queryKey(owner, name)
	if _, dup := p.queries[key]; dup {
		return &DupError{msg: fmt.Sprintf("kb: query %q already registered", name)}
	}
	p.queries[key] = &StoredQuery{Name: name, Owner: owner, Text: text}
	// A personal query changes only its owner's enrichment surface; a
	// shared query is visible to every user's LookupQuery fallback, so it
	// moves the global epoch.
	if owner != "" {
		p.bumpView(owner)
	} else {
		p.globalEpoch++
	}
	return nil
}

// LookupQuery resolves a stored query for the user: her own first, then the
// shared namespace.
func (p *Platform) LookupQuery(user, name string) (*StoredQuery, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if q, ok := p.queries[queryKey(user, name)]; ok {
		return q, true
	}
	q, ok := p.queries[queryKey("", name)]
	return q, ok
}

// Queries lists stored queries visible to the user (own + shared), sorted
// by name.
func (p *Platform) Queries(user string) []*StoredQuery {
	p.mu.RLock()
	defer p.mu.RUnlock()
	var out []*StoredQuery
	for _, q := range p.queries {
		if q.Owner == "" || q.Owner == user {
			out = append(out, q)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
