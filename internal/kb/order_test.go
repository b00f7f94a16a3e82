package kb

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"crosse/internal/rdf"
)

// exploreIDs lists the platform's statement ids in Explore order.
func exploreIDs(p *Platform) []string {
	var ids []string
	for _, st := range p.Explore(nil) {
		ids = append(ids, st.ID)
	}
	return ids
}

// TestRetractKeepsInsertionOrder interleaves inserts with owner and
// believer retractions — enough owner retractions that the order's holes
// are compacted several times — and checks after every step that Explore,
// ImportFromIDs and a snapshot round trip all see the surviving statements
// in insertion order.
func TestRetractKeepsInsertionOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	users := []string{"u0", "u1", "u2"}
	p := newPlatformWithUsers(t, users...)
	var want []string // surviving statement ids in insertion order
	for step := 0; step < 600; step++ {
		switch r := rng.Intn(10); {
		case r < 5 || len(want) == 0:
			u := users[rng.Intn(len(users))]
			id, err := p.Insert(u, tr(fmt.Sprintf("s%d", rng.Intn(20)), "p", fmt.Sprintf("o%d", rng.Intn(5))))
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, id)
		case r < 6:
			st, _ := p.Statement(want[rng.Intn(len(want))])
			u := users[rng.Intn(len(users))]
			if err := p.Import(u, st.ID); err != nil {
				t.Fatal(err)
			}
			if u != st.Owner {
				if err := p.Retract(u, st.ID); err != nil { // a believer retraction keeps the statement
					t.Fatal(err)
				}
			}
		default:
			i := rng.Intn(len(want))
			st, _ := p.Statement(want[i])
			if err := p.Retract(st.Owner, st.ID); err != nil {
				t.Fatal(err)
			}
			want = slices.Delete(want, i, i+1)
		}
		if got := exploreIDs(p); !slices.Equal(got, want) {
			t.Fatalf("step %d: Explore order %v, want %v", step, got, want)
		}
	}

	var owned []string
	for _, id := range want {
		if st, _ := p.Statement(id); st.Owner == "u1" {
			owned = append(owned, id)
		}
	}
	if err := p.RegisterUser("reader"); err != nil {
		t.Fatal(err)
	}
	imported, err := p.ImportFromIDs("reader", "u1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(imported, owned) {
		t.Fatalf("ImportFromIDs order %v, want %v", imported, owned)
	}

	var buf bytes.Buffer
	if err := p.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := exploreIDs(restored); !slices.Equal(got, want) {
		t.Fatalf("restored order %v, want %v", got, want)
	}
}

// TestViewsHoldOnlyAssertedTriples runs random inserts, imports and
// retractions and checks after each that every view holds exactly the
// triples its user believes and the arena asserts each of them once per
// statement. A view can only hold triples the arena asserts (View.Add
// skips any other key), so this is the check that the platform never adds
// a key before acquiring it nor releases one a view still holds: either
// would leave a view short of its beliefs or out of step with the arena.
func TestViewsHoldOnlyAssertedTriples(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	users := []string{"u0", "u1", "u2", "u3"}
	p := newPlatformWithUsers(t, users...)
	for step := 0; step < 500; step++ {
		u := users[rng.Intn(len(users))]
		ids := exploreIDs(p)
		switch r := rng.Intn(10); {
		case r < 4 || len(ids) == 0:
			if _, err := p.Insert(u, tr(fmt.Sprintf("s%d", rng.Intn(6)), "p", fmt.Sprintf("o%d", rng.Intn(3)))); err != nil {
				t.Fatal(err)
			}
		case r < 6:
			if err := p.Import(u, ids[rng.Intn(len(ids))]); err != nil {
				t.Fatal(err)
			}
		case r < 7:
			if _, err := p.ImportFrom(u, users[rng.Intn(len(users))], nil); err != nil {
				t.Fatal(err)
			}
		default:
			st, _ := p.Statement(ids[rng.Intn(len(ids))])
			believers := st.Believers()
			if err := p.Retract(believers[rng.Intn(len(believers))], st.ID); err != nil {
				t.Fatal(err)
			}
		}
		checkViewsMatchArena(t, p)
	}
}

func checkViewsMatchArena(t *testing.T, p *Platform) {
	t.Helper()
	p.mu.RLock()
	defer p.mu.RUnlock()
	believed := map[string]map[rdf.TripleKey]bool{}
	asserted := map[rdf.TripleKey]int{}
	for _, st := range p.statements {
		asserted[st.key]++
		for u := range st.believers {
			if believed[u] == nil {
				believed[u] = map[rdf.TripleKey]bool{}
			}
			believed[u][st.key] = true
		}
	}
	if p.shared.Len() != len(asserted) {
		t.Fatalf("arena holds %d triples, statements assert %d", p.shared.Len(), len(asserted))
	}
	for k, n := range asserted {
		if got := p.shared.RefCount(k); got != n {
			t.Fatalf("triple %v refcounted %d, asserted by %d statements", k, got, n)
		}
	}
	for u, v := range p.views {
		if v.Len() != len(believed[u]) {
			t.Fatalf("view of %s holds %d triples, beliefs imply %d", u, v.Len(), len(believed[u]))
		}
		for k := range believed[u] {
			if !v.Has(k) {
				t.Fatalf("view of %s is missing believed triple %v", u, k)
			}
		}
	}
}
