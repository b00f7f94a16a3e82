package kb

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"crosse/internal/rdf"
	"crosse/internal/sparql"
)

// allTriplesQuery orders the full view deterministically, so equal results
// mean equal graphs.
const allTriplesQuery = `SELECT ?s ?p ?o WHERE { ?s ?p ?o } ORDER BY ?s ?p ?o`

// comparePlatforms asserts that restored is observationally identical to
// want: users, statements (identity, provenance, believers, references),
// stored queries, declarations, every user's view (SPARQL results and
// pattern counts), and the arena's shape.
func comparePlatforms(t *testing.T, want, restored *Platform) {
	t.Helper()

	if got, exp := restored.Users(), want.Users(); !reflect.DeepEqual(got, exp) {
		t.Fatalf("users = %v, want %v", got, exp)
	}

	ws, rs := want.Explore(nil), restored.Explore(nil)
	if len(ws) != len(rs) {
		t.Fatalf("restored %d statements, want %d", len(rs), len(ws))
	}
	for i := range ws {
		a, b := ws[i], rs[i]
		if a.ID != b.ID || a.Triple != b.Triple || a.Owner != b.Owner || a.key != b.key {
			t.Fatalf("statement %d: got {%s %v %s %v}, want {%s %v %s %v}",
				i, b.ID, b.Triple, b.Owner, b.key, a.ID, a.Triple, a.Owner, a.key)
		}
		if !reflect.DeepEqual(a.Believers(), b.Believers()) {
			t.Fatalf("statement %s believers = %v, want %v", a.ID, b.Believers(), a.Believers())
		}
		if (a.Ref == nil) != (b.Ref == nil) || (a.Ref != nil && *a.Ref != *b.Ref) {
			t.Fatalf("statement %s reference = %+v, want %+v", a.ID, b.Ref, a.Ref)
		}
	}

	for _, u := range want.Users() {
		if restored.ViewSize(u) != want.ViewSize(u) {
			t.Fatalf("view of %q has %d triples, want %d", u, restored.ViewSize(u), want.ViewSize(u))
		}
		if !reflect.DeepEqual(restored.Queries(u), want.Queries(u)) {
			t.Fatalf("queries of %q differ", u)
		}
		wv, err := want.View(u)
		if err != nil {
			t.Fatal(err)
		}
		rv, err := restored.View(u)
		if err != nil {
			t.Fatal(err)
		}
		wres, err := sparql.Eval(wv, allTriplesQuery)
		if err != nil {
			t.Fatal(err)
		}
		rres, err := sparql.Eval(rv, allTriplesQuery)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wres.Bindings, rres.Bindings) {
			t.Fatalf("SPARQL results over %q's view differ after restore", u)
		}
		// Pattern counts for every shape derived from each view triple.
		wv.ReadIDs(func(wr rdf.IDReader) {
			rv.ReadIDs(func(rr rdf.IDReader) {
				wr.ForEachIDs(rdf.PatternIDs{}, func(s, p, o rdf.TermID) bool {
					for _, pat := range []rdf.PatternIDs{
						{}, {S: s}, {P: p}, {O: o},
						{S: s, P: p}, {P: p, O: o}, {S: s, O: o}, {S: s, P: p, O: o},
					} {
						if got, exp := rr.CountIDs(pat), wr.CountIDs(pat); got != exp {
							t.Fatalf("view %q CountIDs(%v) = %d, want %d", u, pat, got, exp)
						}
					}
					return true
				})
			})
		})
	}

	for _, kind := range []DeclKind{DeclResource, DeclProperty} {
		if !reflect.DeepEqual(restored.Declarations(kind), want.Declarations(kind)) {
			t.Fatalf("%v declarations differ", kind)
		}
	}
	if restored.Shared().Len() != want.Shared().Len() {
		t.Fatalf("arena has %d triples, want %d", restored.Shared().Len(), want.Shared().Len())
	}
	if restored.Shared().DictLen() > want.Shared().DictLen() {
		t.Fatalf("restored dictionary grew: %d > %d", restored.Shared().DictLen(), want.Shared().DictLen())
	}
}

func roundTrip(t *testing.T, p *Platform) *Platform {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	restored, err := Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	return restored
}

// snapshotFixture builds the platform TestPlatformSnapshotRoundTrip
// restores: a reference, a triple asserted twice (arena refcount 2),
// imports, a retracted belief, a shared and an owned stored query, and one
// declaration of each kind. It returns the platform and the ids of the
// statements bob and alice first inserted and of bob's retracted one.
func snapshotFixture(tb testing.TB) (p *Platform, id1, id2, id3 string) {
	tb.Helper()
	p = NewPlatform()
	for _, u := range []string{"alice", "bob", "carol"} {
		if err := p.RegisterUser(u); err != nil {
			tb.Fatal(err)
		}
	}
	id1, err := p.Insert("alice", rdf.Triple{S: iri("lf1"), P: iri("dangerLevel"), O: rdf.NewLiteral("high")},
		WithReference(Reference{Title: "survey", Author: "alice", Link: "http://x/report", File: "notes.txt"}))
	if err != nil {
		tb.Fatal(err)
	}
	id2, err = p.Insert("bob", rdf.Triple{S: iri("lf2"), P: iri("pollutes"), O: iri("river1")})
	if err != nil {
		tb.Fatal(err)
	}
	// Same triple asserted by a second statement: arena refcount 2.
	if _, err := p.Insert("carol", rdf.Triple{S: iri("lf2"), P: iri("pollutes"), O: iri("river1")}); err != nil {
		tb.Fatal(err)
	}
	if err := p.Import("carol", id1); err != nil {
		tb.Fatal(err)
	}
	if err := p.Import("alice", id2); err != nil {
		tb.Fatal(err)
	}
	// A retracted belief must stay retracted after restore.
	id3, err = p.Insert("bob", rdf.Triple{S: iri("lf3"), P: iri("dangerLevel"), O: rdf.NewLiteral("low")})
	if err != nil {
		tb.Fatal(err)
	}
	if err := p.Import("alice", id3); err != nil {
		tb.Fatal(err)
	}
	if err := p.Retract("alice", id3); err != nil {
		tb.Fatal(err)
	}
	if err := p.RegisterQuery("", "dangerQuery",
		"SELECT ?s WHERE { ?s <"+SMG+"dangerLevel> \"high\" }"); err != nil {
		tb.Fatal(err)
	}
	if err := p.RegisterQuery("alice", "mine", "SELECT ?s ?o WHERE { ?s <"+SMG+"pollutes> ?o }"); err != nil {
		tb.Fatal(err)
	}
	if err := p.DeclareResource("bob", SMG+"River"); err != nil {
		tb.Fatal(err)
	}
	if err := p.DeclareProperty("carol", SMG+"flowsInto"); err != nil {
		tb.Fatal(err)
	}
	return p, id1, id2, id3
}

func TestPlatformSnapshotRoundTrip(t *testing.T) {
	p, id1, id2, id3 := snapshotFixture(t)
	restored := roundTrip(t, p)
	comparePlatforms(t, p, restored)

	// The restored platform is live: new ids do not collide, beliefs and
	// retractions work, and refcounted triples survive partial retracts.
	newID, err := restored.Insert("alice", rdf.Triple{S: iri("lf9"), P: iri("dangerLevel"), O: rdf.NewLiteral("mid")})
	if err != nil {
		t.Fatal(err)
	}
	if _, dup := restored.statements[newID]; !dup || newID == id1 || newID == id2 || newID == id3 {
		t.Fatalf("post-restore insert got id %q colliding with restored ids", newID)
	}
	if err := restored.Retract("bob", id2); err != nil {
		t.Fatal(err)
	}
	// carol's own statement still asserts the same triple, so her view and
	// alice's (importer of id2... which is gone) must be consistent:
	v, err := restored.View("carol")
	if err != nil {
		t.Fatal(err)
	}
	if rdf.Count(v, rdf.Pattern{S: iri("lf2")}) != 1 {
		t.Fatalf("carol lost a triple she still asserts")
	}
}

func mustSnapshot(tb testing.TB, p *Platform) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := p.Snapshot(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// corruptSnapshot is an image Restore must reject, with a text its error
// must contain ("" accepts any error).
type corruptSnapshot struct {
	name, want string
	image      []byte
}

// corruptSnapshots builds the images TestSnapshotRejectsCorruptStream
// feeds Restore: a damaged stream, and well-formed streams of states no
// sequence of platform calls can reach, written by corrupting one field of
// a live platform before Snapshot.
func corruptSnapshots(tb testing.TB) []corruptSnapshot {
	tb.Helper()
	// base holds alice's stmt-1 and stmt-2, the second retracted, so the
	// counter (2) is above every remaining id.
	base := func() *Platform {
		p := NewPlatform()
		if err := p.RegisterUser("alice"); err != nil {
			tb.Fatal(err)
		}
		for _, o := range []string{"c", "d"} {
			if _, err := p.Insert("alice", rdf.Triple{
				S: rdf.NewIRI(SMG + "a"), P: rdf.NewIRI(SMG + "b"), O: rdf.NewLiteral(o),
			}); err != nil {
				tb.Fatal(err)
			}
		}
		if err := p.Retract("alice", "stmt-2"); err != nil {
			tb.Fatal(err)
		}
		return p
	}
	raw := mustSnapshot(tb, base())
	bumped := append([]byte(nil), raw...)
	bumped[len(snapshotMagic)] = 99 // unsupported version
	corrupt := func(edit func(p *Platform)) []byte {
		p := base()
		edit(p)
		return mustSnapshot(tb, p)
	}
	return []corruptSnapshot{
		{"truncated", "", raw[:len(raw)-3]},
		{"bad magic", "not a platform snapshot", []byte("NOTASNAP0123")},
		{"unknown version", "unsupported snapshot version 99", bumped},
		// The next Insert would reissue stmt-1.
		{"counter below an issued id", `kb: corrupt snapshot: statement counter 0 is below issued id "stmt-1"`,
			corrupt(func(p *Platform) { p.nextID = 0 })},
		{"query of an unknown user", `kb: corrupt snapshot: stored query "q" owned by unknown user "ghost"`,
			corrupt(func(p *Platform) {
				p.queries[queryKey("ghost", "q")] = &StoredQuery{Name: "q", Owner: "ghost", Text: `ASK { ?s ?p ?o }`}
			})},
		{"declaration of an unknown user", `kb: corrupt snapshot: declaration "` + SMG + `X" owned by unknown user "ghost"`,
			corrupt(func(p *Platform) {
				p.decls = map[string]*Declaration{"resource\x00" + SMG + "X": {Name: SMG + "X", Owner: "ghost"}}
			})},
		{"empty declaration", "kb: corrupt snapshot: empty declaration",
			corrupt(func(p *Platform) {
				p.decls = map[string]*Declaration{"property\x00": {Owner: "alice", Kind: DeclProperty}}
			})},
	}
}

func TestSnapshotRejectsCorruptStream(t *testing.T) {
	for _, c := range corruptSnapshots(t) {
		t.Run(c.name, func(t *testing.T) {
			_, err := Restore(bytes.NewReader(c.image))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Restore = %v, want an error containing %q", err, c.want)
			}
		})
	}
}

// TestPlatformSnapshotProperty round-trips randomised platforms: random
// users, statements over a small term pool (forcing shared triples and
// refcounts > 1), random references, imports, retracts, declarations and
// stored queries. Losslessness is checked observationally (SPARQL results,
// pattern counts, statement metadata).
func TestPlatformSnapshotProperty(t *testing.T) {
	const trials = 25
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		p := NewPlatform()
		nUsers := 2 + rng.Intn(5)
		users := make([]string, nUsers)
		for i := range users {
			users[i] = fmt.Sprintf("user%d", i)
			if err := p.RegisterUser(users[i]); err != nil {
				t.Fatal(err)
			}
		}
		term := func() rdf.Term {
			switch rng.Intn(4) {
			case 0:
				return rdf.NewIRI(fmt.Sprintf("http://x/r%d", rng.Intn(12)))
			case 1:
				return rdf.NewLiteral(fmt.Sprintf("lit %d", rng.Intn(12)))
			case 2:
				return rdf.NewTypedLiteral(fmt.Sprintf("%d", rng.Intn(12)), rdf.XSDInteger)
			default:
				return rdf.NewBlank(fmt.Sprintf("b%d", rng.Intn(6)))
			}
		}
		var ids []string
		nStmts := 1 + rng.Intn(40)
		for i := 0; i < nStmts; i++ {
			owner := users[rng.Intn(nUsers)]
			tr := rdf.Triple{
				S: rdf.NewIRI(fmt.Sprintf("http://x/s%d", rng.Intn(10))),
				P: rdf.NewIRI(fmt.Sprintf("http://x/p%d", rng.Intn(5))),
				O: term(),
			}
			var opts []InsertOption
			if rng.Intn(3) == 0 {
				opts = append(opts, WithReference(Reference{
					Title:  fmt.Sprintf("title %d", i),
					Author: owner,
					Link:   fmt.Sprintf("http://ref/%d", i),
				}))
			}
			id, err := p.Insert(owner, tr, opts...)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		for i := 0; i < nStmts; i++ {
			if err := p.Import(users[rng.Intn(nUsers)], ids[rng.Intn(len(ids))]); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < nStmts/4; i++ {
			// Retracts may fail when the user holds no belief; that's fine.
			_ = p.Retract(users[rng.Intn(nUsers)], ids[rng.Intn(len(ids))])
		}
		if rng.Intn(2) == 0 {
			if err := p.RegisterQuery("", "shared", `ASK { ?s ?p ?o }`); err != nil {
				t.Fatal(err)
			}
		}
		if rng.Intn(2) == 0 {
			if err := p.DeclareResource(users[0], fmt.Sprintf("http://x/decl%d", trial)); err != nil {
				t.Fatal(err)
			}
		}

		restored := roundTrip(t, p)
		comparePlatforms(t, p, restored)
	}
}

// TestSaveLoadHostileTerms saves terms a line-based text format could only
// spell with escapes, or not at all: Restore must read each back unchanged.
func TestSaveLoadHostileTerms(t *testing.T) {
	for _, c := range []struct {
		name   string
		user   string
		triple rdf.Triple
	}{
		{name: "IRI with >", user: "alice", triple: rdf.Triple{S: iri("a>b"), P: iri("p"), O: iri("o")}},
		{name: "user name with >", user: "eve>x", triple: tr("s", "p", "o")},
		{name: "blank label with a space", user: "alice",
			triple: rdf.Triple{S: rdf.NewBlank("b 1"), P: iri("p"), O: iri("o")}},
		{name: "xsd:string literal", user: "alice",
			triple: rdf.Triple{S: iri("s"), P: iri("p"), O: rdf.NewTypedLiteral("v", rdf.XSDString)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := newPlatformWithUsers(t, c.user)
			id, err := p.Insert(c.user, c.triple)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := p.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := Restore(&buf)
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if got := back.Users(); !reflect.DeepEqual(got, []string{c.user}) {
				t.Errorf("users = %q, want [%q]", got, c.user)
			}
			st, err := back.Statement(id)
			if err != nil {
				t.Fatal(err)
			}
			if st.Triple != c.triple || st.Owner != c.user {
				t.Errorf("statement reads back as %v owned by %q, want %v owned by %q", st.Triple, st.Owner, c.triple, c.user)
			}
		})
	}
}

// statementState renders every statement as id → (triple, owner,
// believers, reference), plus the id the next Insert returns. Taking that
// id mutates p.
func statementState(t *testing.T, p *Platform) (map[string]string, string) {
	t.Helper()
	out := map[string]string{}
	for _, st := range p.Explore(nil) {
		out[st.ID] = fmt.Sprintf("%v owner=%s believers=%v ref=%+v", st.Triple, st.Owner, st.Believers(), st.Ref)
	}
	next, err := p.Insert("alice", tr("next", "p", "o"))
	if err != nil {
		t.Fatal(err)
	}
	return out, next
}

// TestLoadKeepsStatementIDs pins that Restore(Snapshot(p)) agrees with p on
// every statement id and on the id the next Insert returns, after
// retractions too.
func TestLoadKeepsStatementIDs(t *testing.T) {
	p := newPlatformWithUsers(t, "alice", "bob")
	var ids []string
	for i := 1; i <= 12; i++ {
		var opts []InsertOption
		if i%4 == 0 {
			opts = append(opts, WithReference(Reference{Title: fmt.Sprintf("T%d", i)}))
		}
		id, err := p.Insert("alice", tr(fmt.Sprintf("s%d", i), "p", fmt.Sprintf("o%d", i)), opts...)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range []string{ids[1], ids[9], ids[10]} {
		if err := p.Import("bob", id); err != nil {
			t.Fatal(err)
		}
	}
	// A retraction gap in the middle, a believer's own retraction, and
	// the newest statement gone, so only a saved counter keeps its id
	// from being handed out again.
	for _, r := range []struct{ user, id string }{{"alice", ids[4]}, {"bob", ids[9]}, {"alice", ids[11]}} {
		if err := p.Retract(r.user, r.id); err != nil {
			t.Fatal(err)
		}
	}

	var snap bytes.Buffer
	if err := p.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(&snap)
	if err != nil {
		t.Fatal(err)
	}
	want, wantNext := statementState(t, p)
	if len(want) != 10 || wantNext != "stmt-13" {
		t.Fatalf("fixture: %d statements, next id %s", len(want), wantNext)
	}
	got, next := statementState(t, restored)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("%s = %q, want %q", id, got[id], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d statements, want %d", len(got), len(want))
	}
	if next != wantNext {
		t.Errorf("next Insert returns %s, want %s", next, wantNext)
	}
}
