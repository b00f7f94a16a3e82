package rest

import (
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"

	"crosse/internal/core"
	"crosse/internal/engine"
	"crosse/internal/kb"
	"crosse/internal/rdf"
)

// snapshotTestServer is newTestServer plus semantic state and a configured
// snapshot path, returning the pieces the assertions need.
func snapshotTestServer(t *testing.T, snapshotPath string) (*httptest.Server, *core.Enricher) {
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
	srv.SetSnapshotPath(snapshotPath)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, e
}

func TestAdminSnapshotDownload(t *testing.T) {
	ts, e := snapshotTestServer(t, "")

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
	db, p, err := func() (*engine.DB, *kb.Platform, error) {
		defer io.Copy(io.Discard, resp.Body)
		return core.ReadImage(resp.Body)
	}()
	if err != nil {
		t.Fatalf("downloaded image does not restore: %v", err)
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

func TestAdminSnapshotSave(t *testing.T) {
	path := filepath.Join(t.TempDir(), "platform.img")
	ts, e := snapshotTestServer(t, path)

	status, body := doJSON(t, http.MethodPost, ts.URL+"/api/v1/admin/snapshot", nil)
	if status != http.StatusOK {
		t.Fatalf("POST /api/v1/admin/snapshot: status %d body %v", status, body)
	}
	if body["path"] != path || body["bytes"].(float64) <= 0 {
		t.Fatalf("unexpected response %v", body)
	}
	_, p, err := core.LoadImageFile(path)
	if err != nil {
		t.Fatalf("saved image does not load: %v", err)
	}
	if !reflect.DeepEqual(p.Users(), e.Platform.Users()) {
		t.Fatalf("saved image users differ")
	}
}

func TestAdminSnapshotSaveUnconfigured(t *testing.T) {
	ts, _ := snapshotTestServer(t, "")
	status, _ := doJSON(t, http.MethodPost, ts.URL+"/api/v1/admin/snapshot", nil)
	if status != http.StatusConflict {
		t.Fatalf("POST without configured path: status %d, want %d", status, http.StatusConflict)
	}
}
