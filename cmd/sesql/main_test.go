package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"crosse/internal/core"
	"crosse/internal/kb"
	"crosse/internal/rdf"
)

// shell runs meta-commands against a sample-data platform as alice and
// returns what each one prints.
type shell struct {
	t     *testing.T
	enr   *core.Enricher
	user  string
	stats bool
}

func newShell(t *testing.T) *shell {
	t.Helper()
	enr, err := buildPlatform(0, "alice")
	if err != nil {
		t.Fatal(err)
	}
	return &shell{t: t, enr: enr, user: "alice"}
}

func (s *shell) run(cmd string) string {
	s.t.Helper()
	out, err := os.CreateTemp(s.t.TempDir(), "stdout")
	if err != nil {
		s.t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	quit := metaCommand(s.enr, &s.user, &s.stats, cmd)
	os.Stdout = stdout
	if quit {
		s.t.Fatalf("%s quit the shell", cmd)
	}
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		s.t.Fatal(err)
	}
	return string(printed)
}

// platformState renders every statement with its owner and believers, and
// every user's view size.
func platformState(p *kb.Platform) []string {
	var out []string
	for _, st := range p.Explore(nil) {
		out = append(out, fmt.Sprintf("%s %v owner=%s believers=%v", st.ID, st.Triple, st.Owner, st.Believers()))
	}
	for _, u := range p.Users() {
		out = append(out, fmt.Sprintf("view %s = %d", u, p.ViewSize(u)))
	}
	return out
}

func TestSaveKBLoadKB(t *testing.T) {
	sh := newShell(t)
	if out := sh.run(`\tag Mercury dangerLevel extreme`); !strings.HasPrefix(out, "inserted stmt-") {
		t.Fatalf(`\tag printed %q`, out)
	}
	sh.run(`\user bob`)
	if out := sh.run(`\import alice`); out != "imported 9 statement(s)\n" {
		t.Fatalf(`\import printed %q`, out)
	}
	path := filepath.Join(t.TempDir(), "platform.kb")
	if out := sh.run(`\savekb ` + path); out != "wrote "+path+"\n" {
		t.Fatalf(`\savekb printed %q`, out)
	}
	saved := sh.enr.Platform
	if out := sh.run(`\loadkb ` + path); out != "loaded 2 user(s); switch with \\user\n" {
		t.Fatalf(`\loadkb printed %q`, out)
	}
	loaded := sh.enr.Platform
	if loaded == saved {
		t.Fatal(`\loadkb kept the platform it saved`)
	}
	if got, want := platformState(loaded), platformState(saved); !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded platform:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	next := rdf.Triple{S: rdf.NewIRI(core.DefaultIRIPrefix + "Lead"), P: rdf.NewIRI(core.DefaultIRIPrefix + "p"), O: rdf.NewLiteral("o")}
	want, err := saved.Insert("alice", next)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := loaded.Insert("alice", next); err != nil || got != want {
		t.Fatalf("next Insert after \\loadkb = %s, %v, want %s", got, err, want)
	}
}

// TestLoadKBRejectsNonImage feeds \loadkb a file that is not a platform
// image, as a \savekb of an older build wrote it: the shell reports the
// error and keeps its platform.
func TestLoadKBRejectsNonImage(t *testing.T) {
	sh := newShell(t)
	path := filepath.Join(t.TempDir(), "platform.nt")
	line := "<http://smartground.eu/onto#user/alice> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://smartground.eu/onto#User> .\n"
	if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	before := sh.enr.Platform
	state := platformState(before)
	out := sh.run(`\loadkb ` + path)
	if !strings.HasPrefix(out, "error: kb: not a platform snapshot (bad magic") {
		t.Fatalf(`\loadkb printed %q`, out)
	}
	if sh.enr.Platform != before || !reflect.DeepEqual(platformState(before), state) {
		t.Fatal(`a failed \loadkb changed the platform`)
	}
}
