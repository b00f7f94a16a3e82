package kb

import (
	"bytes"
	"reflect"
	"testing"
)

func TestDeclareAndList(t *testing.T) {
	p := newPlatformWithUsers(t, "alice", "bob")
	if err := p.DeclareResource("alice", SMG+"SecondaryRawMaterial"); err != nil {
		t.Fatal(err)
	}
	if err := p.DeclareProperty("bob", SMG+"recoverableFrom"); err != nil {
		t.Fatal(err)
	}
	// Idempotent: re-declaring keeps the first owner.
	if err := p.DeclareResource("bob", SMG+"SecondaryRawMaterial"); err != nil {
		t.Fatal(err)
	}
	res := p.Declarations(DeclResource)
	if len(res) != 1 || res[0].Owner != "alice" {
		t.Errorf("resources = %+v", res)
	}
	props := p.Declarations(DeclProperty)
	if len(props) != 1 || props[0].Name != SMG+"recoverableFrom" {
		t.Errorf("properties = %+v", props)
	}
	if err := p.DeclareResource("ghost", SMG+"X"); err == nil {
		t.Error("unknown user must fail")
	}
	if err := p.DeclareProperty("alice", ""); err == nil {
		t.Error("empty declaration must fail")
	}
}

func TestSuggestedProperties(t *testing.T) {
	p := newPlatformWithUsers(t, "alice")
	// A used property and a declared-but-unused property both appear.
	if _, err := p.Insert("alice", tr("Hg", "dangerLevel", "high")); err != nil {
		t.Fatal(err)
	}
	if err := p.DeclareProperty("alice", SMG+"recoverableFrom"); err != nil {
		t.Fatal(err)
	}
	got := p.SuggestedProperties()
	want := []string{SMG + "dangerLevel", SMG + "recoverableFrom"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("suggested = %v, want %v", got, want)
	}
}

// TestDeclarationsSurviveSaveLoad round-trips declarations and their owners
// through Snapshot → Restore.
func TestDeclarationsSurviveSaveLoad(t *testing.T) {
	p := newPlatformWithUsers(t, "alice", "bob")
	p.DeclareResource("alice", SMG+"Tailings")
	p.DeclareProperty("bob", SMG+"storedAt")
	var buf bytes.Buffer
	if err := p.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	p2, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res := p2.Declarations(DeclResource)
	if len(res) != 1 || res[0].Owner != "alice" || res[0].Name != SMG+"Tailings" {
		t.Errorf("resources after load = %+v", res)
	}
	props := p2.Declarations(DeclProperty)
	if len(props) != 1 || props[0].Owner != "bob" {
		t.Errorf("properties after load = %+v", props)
	}
}
