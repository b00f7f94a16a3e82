package kb

import (
	"bytes"
	"strings"
	"testing"

	"crosse/internal/rdf"
	"crosse/internal/sparql"
)

func iri(local string) rdf.Term { return rdf.NewIRI(SMG + local) }

func tr(s, p, o string) rdf.Triple { return rdf.Triple{S: iri(s), P: iri(p), O: iri(o)} }

func newPlatformWithUsers(t *testing.T, users ...string) *Platform {
	t.Helper()
	p := NewPlatform()
	for _, u := range users {
		if err := p.RegisterUser(u); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func TestRegisterUser(t *testing.T) {
	p := NewPlatform()
	if err := p.RegisterUser("alice"); err != nil {
		t.Fatal(err)
	}
	if err := p.RegisterUser("alice"); err == nil {
		t.Error("duplicate user must fail")
	}
	if err := p.RegisterUser(""); err == nil {
		t.Error("empty user must fail")
	}
	if got := p.Users(); len(got) != 1 || got[0] != "alice" {
		t.Errorf("Users = %v", got)
	}
}

func TestInsertAndView(t *testing.T) {
	p := newPlatformWithUsers(t, "alice", "bob")
	id, err := p.Insert("alice", tr("Mercury", "isA", "HazardousWaste"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Statement(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Owner != "alice" || !st.BelievedBy("alice") || st.BelievedBy("bob") {
		t.Errorf("%+v", st)
	}
	if p.ViewSize("alice") != 1 || p.ViewSize("bob") != 0 {
		t.Errorf("views: alice=%d bob=%d", p.ViewSize("alice"), p.ViewSize("bob"))
	}
	if _, err := p.Insert("ghost", tr("a", "b", "c")); err == nil {
		t.Error("unknown user must fail")
	}
}

func TestViewIsQueryable(t *testing.T) {
	p := newPlatformWithUsers(t, "alice")
	p.Insert("alice", tr("Mercury", "isA", "HazardousWaste"))
	p.Insert("alice", tr("Lead", "isA", "HazardousWaste"))
	g, err := p.View("alice")
	if err != nil {
		t.Fatal(err)
	}
	r, err := sparql.Eval(g, `PREFIX smg: <`+SMG+`> SELECT ?x WHERE { ?x smg:isA smg:HazardousWaste }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Bindings) != 2 {
		t.Errorf("bindings = %d", len(r.Bindings))
	}
	if _, err := p.View("ghost"); err == nil {
		t.Error("unknown user view must fail")
	}
}

func TestImportSharesKnowledge(t *testing.T) {
	p := newPlatformWithUsers(t, "alice", "bob")
	id, _ := p.Insert("alice", tr("Asbestos", "isA", "HazardousWaste"))
	if err := p.Import("bob", id); err != nil {
		t.Fatal(err)
	}
	if p.ViewSize("bob") != 1 {
		t.Error("import must populate bob's view")
	}
	st, _ := p.Statement(id)
	if got := st.Believers(); strings.Join(got, ",") != "alice,bob" {
		t.Errorf("believers = %v", got)
	}
	// Importing twice is idempotent.
	if err := p.Import("bob", id); err != nil {
		t.Fatal(err)
	}
	if p.ViewSize("bob") != 1 {
		t.Error("double import must not duplicate")
	}
	if err := p.Import("bob", "stmt-999"); err == nil {
		t.Error("missing statement must fail")
	}
}

func TestImportFromWithFilter(t *testing.T) {
	p := newPlatformWithUsers(t, "alice", "bob")
	p.Insert("alice", tr("Mercury", "isA", "HazardousWaste"))
	p.Insert("alice", tr("Gold", "isA", "PreciousMetal"))
	p.Insert("alice", tr("Lead", "isA", "HazardousWaste"))
	n, err := p.ImportFrom("bob", "alice", func(st *Statement) bool {
		return st.Triple.O == iri("HazardousWaste")
	})
	if err != nil || n != 2 {
		t.Fatalf("imported %d, err %v", n, err)
	}
	if p.ViewSize("bob") != 2 {
		t.Errorf("bob view = %d", p.ViewSize("bob"))
	}
	// Re-import is a no-op.
	n, _ = p.ImportFrom("bob", "alice", nil)
	if n != 1 { // only the Gold statement remains unimported
		t.Errorf("second import n = %d", n)
	}
}

func TestRetractByOwnerRemovesEverywhere(t *testing.T) {
	p := newPlatformWithUsers(t, "alice", "bob")
	id, _ := p.Insert("alice", tr("X", "p", "Y"))
	p.Import("bob", id)
	if err := p.Retract("alice", id); err != nil {
		t.Fatal(err)
	}
	if p.ViewSize("alice") != 0 || p.ViewSize("bob") != 0 {
		t.Error("owner retraction must clear all views")
	}
	if _, err := p.Statement(id); err == nil {
		t.Error("statement must be gone")
	}
}

func TestRetractBeliefOnly(t *testing.T) {
	p := newPlatformWithUsers(t, "alice", "bob")
	id, _ := p.Insert("alice", tr("X", "p", "Y"))
	p.Import("bob", id)
	if err := p.Retract("bob", id); err != nil {
		t.Fatal(err)
	}
	if p.ViewSize("bob") != 0 || p.ViewSize("alice") != 1 {
		t.Error("belief retraction must only clear bob")
	}
	if err := p.Retract("bob", id); err == nil {
		t.Error("retracting a non-held statement must fail")
	}
}

func TestRetractKeepsTripleAssertedTwice(t *testing.T) {
	p := newPlatformWithUsers(t, "alice", "bob")
	// Same triple asserted independently by both users.
	idA, _ := p.Insert("alice", tr("X", "p", "Y"))
	idB, _ := p.Insert("bob", tr("X", "p", "Y"))
	p.Import("alice", idB) // alice also believes bob's copy
	if err := p.Retract("alice", idA); err != nil {
		t.Fatal(err)
	}
	// Alice still believes bob's statement with the same triple.
	if p.ViewSize("alice") != 1 {
		t.Error("triple asserted by another believed statement must survive")
	}
}

// TestOwnerRetractKeepsSharedTriple: two users' statements assert one
// triple, both users believe the first, and its owner retracts it. The
// other believer still holds the triple through their own statement —
// before and after a snapshot round trip, whose refcount checks must
// accept the platform at every step.
func TestOwnerRetractKeepsSharedTriple(t *testing.T) {
	for _, restoreFirst := range []bool{false, true} {
		p := newPlatformWithUsers(t, "alice", "bob")
		idA, _ := p.Insert("alice", tr("X", "p", "Y"))
		idB, _ := p.Insert("bob", tr("X", "p", "Y"))
		if err := p.Import("bob", idA); err != nil {
			t.Fatal(err)
		}
		if restoreFirst {
			p = roundTrip(t, p)
		}
		if err := p.Retract("alice", idA); err != nil {
			t.Fatal(err)
		}
		p = roundTrip(t, p)
		v, err := p.View("bob")
		if err != nil {
			t.Fatal(err)
		}
		if got := rdf.Count(v, rdf.Pattern{S: iri("X")}); got != 1 {
			t.Fatalf("restoreFirst=%v: bob sees %d triples about X, want 1", restoreFirst, got)
		}
		if p.ViewSize("alice") != 0 {
			t.Fatalf("restoreFirst=%v: alice still sees her retracted triple", restoreFirst)
		}
		// The surviving statement is the only one left asserting the
		// triple: retracting it empties bob's view too.
		if err := p.Retract("bob", idB); err != nil {
			t.Fatal(err)
		}
		if p.ViewSize("bob") != 0 {
			t.Fatalf("restoreFirst=%v: bob still sees a triple no statement asserts", restoreFirst)
		}
		roundTrip(t, p)
	}
}

func TestIntegratedAnnotationValidation(t *testing.T) {
	p := newPlatformWithUsers(t, "alice")
	if _, err := p.Insert("alice", tr("Mercury", "isA", "X"), Integrated()); err == nil {
		t.Error("integrated without checker must fail")
	}
	p.SetConceptChecker(func(s string) bool { return strings.Contains(s, "Mercury") })
	if _, err := p.Insert("alice", tr("Mercury", "isA", "X"), Integrated()); err != nil {
		t.Errorf("valid concept rejected: %v", err)
	}
	if _, err := p.Insert("alice", tr("Unobtainium", "isA", "X"), Integrated()); err == nil {
		t.Error("unknown concept must be rejected in integrated mode")
	}
	// Independent annotation has no such check.
	if _, err := p.Insert("alice", tr("Unobtainium", "isA", "X")); err != nil {
		t.Errorf("independent annotation rejected: %v", err)
	}
}

func TestExplore(t *testing.T) {
	p := newPlatformWithUsers(t, "alice", "bob")
	p.Insert("alice", tr("A", "p", "B"))
	p.Insert("bob", tr("C", "p", "D"))
	p.Insert("alice", tr("E", "p", "F"))
	all := p.Explore(nil)
	if len(all) != 3 || all[0].Triple.S != iri("A") || all[2].Triple.S != iri("E") {
		t.Errorf("explore order: %v", all)
	}
	onlyBob := p.Explore(func(st *Statement) bool { return st.Owner == "bob" })
	if len(onlyBob) != 1 || onlyBob[0].Triple.S != iri("C") {
		t.Errorf("filtered explore: %v", onlyBob)
	}
}

func TestStoredQueries(t *testing.T) {
	p := newPlatformWithUsers(t, "alice", "bob")
	q := `PREFIX smg: <` + SMG + `> SELECT ?x WHERE { ?x smg:isA smg:HazardousWaste }`
	if err := p.RegisterQuery("", "dangerQuery", q); err != nil {
		t.Fatal(err)
	}
	if err := p.RegisterQuery("alice", "dangerQuery", `SELECT ?x WHERE { ?x ?p ?o }`); err != nil {
		t.Fatal(err)
	}
	// Alice resolves her own override; bob falls back to shared.
	qa, ok := p.LookupQuery("alice", "dangerQuery")
	if !ok || qa.Owner != "alice" {
		t.Errorf("alice lookup: %+v ok=%v", qa, ok)
	}
	qb, ok := p.LookupQuery("bob", "dangerQuery")
	if !ok || qb.Owner != "" {
		t.Errorf("bob lookup: %+v ok=%v", qb, ok)
	}
	if _, ok := p.LookupQuery("bob", "missing"); ok {
		t.Error("missing query must not resolve")
	}
	// Syntax errors rejected at registration.
	if err := p.RegisterQuery("", "bad", "SELECT WHERE"); err == nil {
		t.Error("bad SPARQL must fail registration")
	}
	if err := p.RegisterQuery("", "dangerQuery", q); err == nil {
		t.Error("duplicate registration must fail")
	}
	if err := p.RegisterQuery("ghost", "x", q); err == nil {
		t.Error("unknown owner must fail")
	}
	if got := p.Queries("bob"); len(got) != 1 {
		t.Errorf("bob sees %d queries", len(got))
	}
	if got := p.Queries("alice"); len(got) != 2 {
		t.Errorf("alice sees %d queries", len(got))
	}
}

// TestSaveLoadRoundTrip round-trips a small platform through the image
// \savekb writes and \loadkb reads (Snapshot → Restore).
func TestSaveLoadRoundTrip(t *testing.T) {
	p := newPlatformWithUsers(t, "alice", "bob")
	id1, _ := p.Insert("alice", tr("Mercury", "isA", "HazardousWaste"),
		WithReference(Reference{Title: "T", Author: "A", Link: "L", File: "F"}))
	p.Insert("bob", rdf.Triple{S: iri("Torino"), P: iri("inCountry"), O: rdf.NewLiteral("Italy")})
	p.Import("bob", id1)
	p.RegisterQuery("", "dangerQuery", `SELECT ?x WHERE { ?x ?p ?o }`)
	p.RegisterQuery("alice", "mine", `ASK { ?x ?p ?o }`)

	var buf bytes.Buffer
	if err := p.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	p2, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(p2.Users(), ",") != "alice,bob" {
		t.Errorf("users = %v", p2.Users())
	}
	if p2.ViewSize("alice") != 1 || p2.ViewSize("bob") != 2 {
		t.Errorf("views: alice=%d bob=%d", p2.ViewSize("alice"), p2.ViewSize("bob"))
	}
	sts := p2.Explore(func(st *Statement) bool { return st.Ref != nil })
	if len(sts) != 1 || sts[0].Ref.Title != "T" || sts[0].Ref.File != "F" {
		t.Errorf("reference round trip: %+v", sts)
	}
	if _, ok := p2.LookupQuery("bob", "dangerQuery"); !ok {
		t.Error("shared query lost")
	}
	if q, ok := p2.LookupQuery("alice", "mine"); !ok || q.Owner != "alice" {
		t.Error("owned query lost")
	}
}

func TestConcurrentPlatformAccess(t *testing.T) {
	p := newPlatformWithUsers(t, "alice", "bob")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			p.Insert("alice", tr("A", "p", "B"))
			p.Explore(nil)
		}
	}()
	for i := 0; i < 200; i++ {
		p.Insert("bob", tr("C", "p", "D"))
		p.ViewSize("bob")
		if g, err := p.View("alice"); err == nil {
			rdf.Count(g, rdf.Pattern{})
		}
	}
	<-done
}

// Regression test for the Statement/Explore vs Import data race: statements
// handed out to callers used to share their believers map with the platform,
// so a reader calling BelievedBy/Believers while another goroutine ran
// Import/ImportFrom raced on the map. Snapshots must detach that state.
// Run with -race to exercise the guarantee.
func TestStatementSnapshotNoRace(t *testing.T) {
	p := newPlatformWithUsers(t, "alice", "bob", "carol")
	var ids []string
	for i := 0; i < 50; i++ {
		id, err := p.Insert("alice", tr("S"+string(rune('a'+i%26)), "p", "O"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			for _, id := range ids {
				p.Import("bob", id)
			}
			p.ImportFrom("carol", "alice", nil)
		}
	}()
	for i := 0; i < 100; i++ {
		for _, st := range p.Explore(nil) {
			st.Believers()
			st.BelievedBy("bob")
		}
		if st, err := p.Statement(ids[i%len(ids)]); err == nil {
			st.Believers()
		}
	}
	<-done

	st, err := p.Statement(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"alice", "bob", "carol"} {
		if !st.BelievedBy(u) {
			t.Errorf("statement should be believed by %s", u)
		}
	}
	// A snapshot must not see later imports: retract and re-check the old
	// snapshot still reports the belief.
	if err := p.Retract("bob", ids[0]); err != nil {
		t.Fatal(err)
	}
	if !st.BelievedBy("bob") {
		t.Error("snapshot must be detached from later platform mutations")
	}
	fresh, err := p.Statement(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if fresh.BelievedBy("bob") {
		t.Error("fresh snapshot must observe the retraction")
	}
}

// TestSharedArenaNoReInterning pins the overlay-view memory contract: a
// corpus believed by many users is interned and indexed once in the shared
// arena — imports add ID-level view state only, never dictionary entries or
// duplicate union triples — and owner retraction releases arena triples no
// surviving statement asserts.
func TestSharedArenaNoReInterning(t *testing.T) {
	p := newPlatformWithUsers(t, "expert", "u1", "u2", "u3")
	var ids []string
	for _, x := range []string{"Mercury", "Lead", "Zinc"} {
		id, err := p.Insert("expert", tr(x, "isA", "HazardousWaste"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	arena := p.Shared()
	dictBefore, lenBefore := arena.DictLen(), arena.Len()

	for _, u := range []string{"u1", "u2", "u3"} {
		if _, err := p.ImportFrom(u, "expert", nil); err != nil {
			t.Fatal(err)
		}
		if p.ViewSize(u) != 3 {
			t.Fatalf("%s view = %d", u, p.ViewSize(u))
		}
	}
	if arena.DictLen() != dictBefore {
		t.Errorf("imports grew the dictionary: %d → %d", dictBefore, arena.DictLen())
	}
	if arena.Len() != lenBefore {
		t.Errorf("imports grew the union arena: %d → %d", lenBefore, arena.Len())
	}

	// Owner retraction drops the triple from the arena (no other statement
	// asserts it) and from every believer's view.
	if err := p.Retract("expert", ids[0]); err != nil {
		t.Fatal(err)
	}
	if arena.Len() != lenBefore-1 {
		t.Errorf("arena Len after retract = %d, want %d", arena.Len(), lenBefore-1)
	}
	for _, u := range []string{"u1", "u2", "u3"} {
		if p.ViewSize(u) != 2 {
			t.Errorf("%s view after retract = %d", u, p.ViewSize(u))
		}
	}
}

// TestViewIsIDGraph pins that per-user views expose the encoded layer the
// streaming SPARQL executor reads through.
func TestViewIsIDGraph(t *testing.T) {
	p := newPlatformWithUsers(t, "alice")
	p.Insert("alice", tr("Mercury", "isA", "HazardousWaste"))
	g, err := p.View("alice")
	if err != nil {
		t.Fatal(err)
	}
	g.ReadIDs(func(r rdf.IDReader) {
		pid, ok := r.IDOf(iri("isA"))
		if !ok {
			t.Fatal("isA not interned")
		}
		if n := r.CountIDs(rdf.PatternIDs{P: pid}); n != 1 {
			t.Errorf("CountIDs = %d", n)
		}
	})
}
