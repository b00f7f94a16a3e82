package kb

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"crosse/internal/rdf"
)

// randomPlatform builds a platform with random users, statements, beliefs,
// references and stored queries.
func randomPlatform(t *testing.T, seed int64) *Platform {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := NewPlatform()
	nUsers := 2 + rng.Intn(4)
	users := make([]string, nUsers)
	for i := range users {
		users[i] = fmt.Sprintf("user%d", i)
		if err := p.RegisterUser(users[i]); err != nil {
			t.Fatal(err)
		}
	}
	var ids []string
	nStmts := 5 + rng.Intn(30)
	for i := 0; i < nStmts; i++ {
		owner := users[rng.Intn(nUsers)]
		var opts []InsertOption
		if rng.Intn(3) == 0 {
			opts = append(opts, WithReference(Reference{
				Title:  fmt.Sprintf("title %d", i),
				Author: fmt.Sprintf("author %d", rng.Intn(5)),
				Link:   fmt.Sprintf("http://ref/%d", i),
				File:   fmt.Sprintf("file%d.txt", i),
			}))
		}
		var obj rdf.Term
		if rng.Intn(2) == 0 {
			obj = rdf.NewIRI(SMG + fmt.Sprintf("obj%d", rng.Intn(10)))
		} else {
			obj = rdf.NewLiteral(fmt.Sprintf("lit %d \"quoted\"\n", rng.Intn(10)))
		}
		id, err := p.Insert(owner, rdf.Triple{
			S: rdf.NewIRI(SMG + fmt.Sprintf("subj%d", rng.Intn(12))),
			P: rdf.NewIRI(SMG + fmt.Sprintf("prop%d", rng.Intn(6))),
			O: obj,
		}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Random beliefs.
	for _, id := range ids {
		for _, u := range users {
			if rng.Intn(3) == 0 {
				if err := p.Import(u, id); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Stored queries.
	if err := p.RegisterQuery("", "shared", `SELECT ?x WHERE { ?x ?p ?o }`); err != nil {
		t.Fatal(err)
	}
	if err := p.RegisterQuery(users[0], "own", `ASK { ?x ?p ?o }`); err != nil {
		t.Fatal(err)
	}
	return p
}

// snapshot captures the observable platform state for comparison.
func snapshot(p *Platform) map[string]any {
	out := map[string]any{"users": p.Users()}
	var stmts []string
	for _, st := range p.Explore(nil) {
		ref := ""
		if st.Ref != nil {
			ref = st.Ref.Title + "|" + st.Ref.Author + "|" + st.Ref.Link + "|" + st.Ref.File
		}
		stmts = append(stmts, fmt.Sprintf("%s;%s;%v;%s", st.Triple, st.Owner, st.Believers(), ref))
	}
	sort.Strings(stmts)
	out["statements"] = stmts
	views := map[string]int{}
	for _, u := range p.Users() {
		views[u] = p.ViewSize(u)
	}
	out["views"] = views
	return out
}

// Property: a \savekb → \loadkb round trip (Snapshot → Restore) preserves
// every observable aspect of the platform for random platforms.
func TestSaveLoadRoundTripRandom(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		p := randomPlatform(t, seed)
		var buf bytes.Buffer
		if err := p.Snapshot(&buf); err != nil {
			t.Fatalf("seed %d: save: %v", seed, err)
		}
		p2, err := Restore(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: load: %v", seed, err)
		}
		a, b := snapshot(p), snapshot(p2)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: round trip differs:\n a: %v\n b: %v", seed, a, b)
		}
		// Stored queries survive too.
		if _, ok := p2.LookupQuery("user0", "own"); !ok {
			t.Fatalf("seed %d: owned query lost", seed)
		}
		if _, ok := p2.LookupQuery("user1", "shared"); !ok {
			t.Fatalf("seed %d: shared query lost", seed)
		}
	}
}

// Property: a user's view is exactly the set of triples of statements she
// believes.
func TestViewMatchesBeliefs(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		p := randomPlatform(t, seed)
		for _, u := range p.Users() {
			want := map[rdf.Triple]struct{}{}
			for _, st := range p.Explore(nil) {
				if st.BelievedBy(u) {
					want[st.Triple] = struct{}{}
				}
			}
			view, err := p.View(u)
			if err != nil {
				t.Fatal(err)
			}
			got := map[rdf.Triple]struct{}{}
			rdf.ForEach(view, rdf.Pattern{}, func(tr rdf.Triple) bool {
				got[tr] = struct{}{}
				return true
			})
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d user %s: view has %d triples, beliefs imply %d",
					seed, u, len(got), len(want))
			}
		}
	}
}

// Property: retracting everything a user owns empties what she contributed
// but never disturbs other owners' statements.
func TestMassRetractionIsolation(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		p := randomPlatform(t, seed)
		users := p.Users()
		victim := users[0]
		othersBefore := len(p.Explore(func(st *Statement) bool { return st.Owner != victim }))
		for _, st := range p.Explore(func(st *Statement) bool { return st.Owner == victim }) {
			if err := p.Retract(victim, st.ID); err != nil {
				t.Fatal(err)
			}
		}
		if n := len(p.Explore(func(st *Statement) bool { return st.Owner == victim })); n != 0 {
			t.Fatalf("seed %d: %d statements survive owner retraction", seed, n)
		}
		othersAfter := len(p.Explore(func(st *Statement) bool { return st.Owner != victim }))
		if othersBefore != othersAfter {
			t.Fatalf("seed %d: other owners affected: %d → %d", seed, othersBefore, othersAfter)
		}
	}
}
