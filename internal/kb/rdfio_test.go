package kb

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"crosse/internal/rdf"
)

// TestSaveLoadHostileTerms saves terms N-Triples can only spell with
// escapes: Load must read each back unchanged, and Save must refuse a
// blank node label it cannot write, naming it.
func TestSaveLoadHostileTerms(t *testing.T) {
	for _, c := range []struct {
		name    string
		user    string
		triple  rdf.Triple
		saveErr string // non-empty: Save must fail with an error containing it
	}{
		{name: "IRI with >", user: "alice", triple: rdf.Triple{S: iri("a>b"), P: iri("p"), O: iri("o")}},
		{name: "user name with >", user: "eve>x", triple: tr("s", "p", "o")},
		{name: "blank label with a space", user: "alice",
			triple: rdf.Triple{S: rdf.NewBlank("b 1"), P: iri("p"), O: iri("o")}, saveErr: `"b 1"`},
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
			err = p.Save(&buf)
			if c.saveErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.saveErr) {
					t.Fatalf("Save = %v, want an error naming %s", err, c.saveErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			back, err := Load(&buf)
			if err != nil {
				t.Fatalf("Load of %q: %v", buf.String(), err)
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

// TestLoadKeepsStatementIDs pins that Load(Save(p)) agrees with
// Restore(Snapshot(p)) — and with p — on every statement id and on the id
// the next Insert returns, after retractions too.
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

	var saved, snap bytes.Buffer
	if err := p.Save(&saved); err != nil {
		t.Fatal(err)
	}
	if err := p.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&saved)
	if err != nil {
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
	for name, q := range map[string]*Platform{"Load(Save(p))": loaded, "Restore(Snapshot(p))": restored} {
		got, next := statementState(t, q)
		for id, w := range want {
			if got[id] != w {
				t.Errorf("%s: %s = %q, want %q", name, id, got[id], w)
			}
		}
		if len(got) != len(want) {
			t.Errorf("%s: %d statements, want %d", name, len(got), len(want))
		}
		if next != wantNext {
			t.Errorf("%s: next Insert returns %s, want %s", name, next, wantNext)
		}
	}
}
