package kb

import (
	"bytes"
	"testing"

	"crosse/internal/rdf"
)

// FuzzRestore feeds Restore arbitrary bytes. It must return an error, or a
// platform that snapshots and restores again to an equal platform, holds
// the invariants Restore checks, and hands every user a fresh id on Insert.
func FuzzRestore(f *testing.F) {
	p, _, _, _ := snapshotFixture(f)
	f.Add(mustSnapshot(f, p))
	for _, c := range corruptSnapshots(f) {
		f.Add(c.image)
	}
	f.Fuzz(func(t *testing.T, image []byte) {
		p, err := Restore(bytes.NewReader(image))
		if err != nil {
			return
		}
		comparePlatforms(t, p, roundTrip(t, p))

		for _, st := range p.order {
			if statementSeq(st.ID) > p.nextID {
				t.Fatalf("statement counter %d is below issued id %q", p.nextID, st.ID)
			}
		}
		for _, q := range p.queries {
			if _, known := p.users[q.Owner]; q.Owner != "" && !known {
				t.Fatalf("stored query %q owned by unknown user %q", q.Name, q.Owner)
			}
		}
		for _, d := range p.decls {
			if _, known := p.users[d.Owner]; d.Name == "" || !known {
				t.Fatalf("declaration %q owned by %q", d.Name, d.Owner)
			}
		}

		used := map[string]bool{}
		for _, st := range p.Explore(nil) {
			used[st.ID] = true
		}
		for _, u := range p.Users() {
			id, err := p.Insert(u, rdf.Triple{S: iri("fuzz"), P: iri("p"), O: rdf.NewLiteral(u)})
			if err != nil {
				t.Fatalf("Insert for %q: %v", u, err)
			}
			if used[id] {
				t.Fatalf("Insert for %q reissued id %q", u, id)
			}
			used[id] = true
		}
	})
}
