package rest

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"

	"crosse/internal/core"
	"crosse/internal/engine"
	"crosse/internal/kb"
	"crosse/internal/rdf"
)

// snapshotTestServer is newTestServer plus semantic state, returning the
// pieces the assertions need.
func snapshotTestServer(t *testing.T) (*httptest.Server, *core.Enricher) {
	t.Helper()
	db := engine.Open()
	if _, err := db.ExecScript(`
		CREATE TABLE landfill (name TEXT PRIMARY KEY, city TEXT);
		INSERT INTO landfill VALUES ('a', 'Torino'), ('b', 'Milano');
	`); err != nil {
		t.Fatal(err)
	}
	p := kb.NewPlatform()
	if err := p.RegisterUser("alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Insert("alice", rdf.Triple{
		S: rdf.NewIRI(kb.SMG + "Mercury"),
		P: rdf.NewIRI(kb.SMG + "dangerLevel"),
		O: rdf.NewLiteral("high"),
	}); err != nil {
		t.Fatal(err)
	}
	e := core.New(db, p, nil)
	srv := NewServer(e)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, e
}

func TestAdminSnapshotDownload(t *testing.T) {
	ts, e := snapshotTestServer(t)

	resp, err := http.Get(ts.URL + "/api/v1/admin/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /api/v1/admin/snapshot: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("content type %q", ct)
	}
	db, p, lsn, err := func() (*engine.DB, *kb.Platform, uint64, error) {
		defer io.Copy(io.Discard, resp.Body)
		return core.ReadImageLSN(resp.Body)
	}()
	if err != nil || lsn != 0 {
		t.Fatalf("downloaded image does not restore: lsn=%d err=%v", lsn, err)
	}
	if got, want := p.Users(), e.Platform.Users(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored users %v, want %v", got, want)
	}
	if p.ViewSize("alice") != e.Platform.ViewSize("alice") {
		t.Fatalf("restored alice view size %d, want %d", p.ViewSize("alice"), e.Platform.ViewSize("alice"))
	}
	r, err := db.Query(`SELECT name FROM landfill`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("restored databank has %d landfills, want 2", len(r.Rows))
	}
}

// TestAdminBackupRestoresThroughJournal follows the documented restore
// path: a backup from GET /api/v1/admin/snapshot, placed alone as
// platform.img in an empty directory, boots a journal-backed server whose
// later writes survive POST /api/v1/admin/compact and a reopen.
func TestAdminBackupRestoresThroughJournal(t *testing.T) {
	ts, e := snapshotTestServer(t)
	resp, err := http.Get(ts.URL + "/api/v1/admin/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	backup, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /api/v1/admin/snapshot: status %d, %v", resp.StatusCode, err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(core.ImagePath(dir), backup, 0o644); err != nil {
		t.Fatal(err)
	}
	noBootstrap := func() (*engine.DB, *kb.Platform, error) {
		t.Fatal("a directory holding a backup image must not bootstrap")
		return nil, nil, nil
	}
	j, restored, err := core.OpenJournal(dir, core.JournalOptions{}, noBootstrap)
	if err != nil || !restored {
		t.Fatalf("OpenJournal on a backup: restored=%v, %v", restored, err)
	}
	if got, want := j.Platform().Users(), e.Platform.Users(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored users %v, want %v", got, want)
	}
	srv := NewServer(core.New(j.DB(), j.Platform(), nil))
	srv.SetJournal(j)
	ts2 := httptest.NewServer(srv.Handler())
	defer ts2.Close()
	if status, body := doJSON(t, http.MethodPost, ts2.URL+"/api/v1/users", map[string]any{"name": "bob"}); status != http.StatusCreated {
		t.Fatalf("POST /api/v1/users: status %d body %v", status, body)
	}
	status, body := doJSON(t, http.MethodPost, ts2.URL+"/api/v1/admin/compact", nil)
	if status != http.StatusOK || body["start_lsn"] != float64(1) || body["lsn"] != float64(1) {
		t.Fatalf("POST /api/v1/admin/compact: status %d body %v", status, body)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j, restored, err = core.OpenJournal(dir, core.JournalOptions{}, noBootstrap)
	if err != nil || !restored {
		t.Fatalf("reopen: restored=%v, %v", restored, err)
	}
	defer j.Close()
	if got := j.Platform().Users(); !reflect.DeepEqual(got, []string{"alice", "bob"}) {
		t.Fatalf("users after compaction and reopen %v, want [alice bob]", got)
	}
}
