package core

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"crosse/internal/engine"
	"crosse/internal/kb"
	"crosse/internal/wal"
)

// enrichedQueries exercise the full pipeline: schema extension via the
// user's KB plus a stored-query enrichment.
var enrichedQueries = []string{
	"SELECT elem_name, landfill_name\nFROM elem_contained\nENRICH\nSCHEMAEXTENSION( elem_name, dangerLevel)",
	"SELECT name, city\nFROM landfill\nENRICH\nSCHEMAREPLACEMENT(city, inCountry)",
	"SELECT elem_name\nFROM elem_contained\nENRICH\nBOOLSCHEMAEXTENSION( elem_name, isA, HazardousWaste)",
}

func TestImageRoundTrip(t *testing.T) {
	e := fixture(t)

	var img bytes.Buffer
	if err := WriteImage(&img, e.DB, e.Platform); err != nil {
		t.Fatalf("WriteImage: %v", err)
	}
	db, p, lsn, err := ReadImageLSN(bytes.NewReader(img.Bytes()))
	if err != nil || lsn != 0 {
		t.Fatalf("ReadImageLSN: lsn=%d err=%v", lsn, err)
	}
	restored := New(db, p, nil)

	// Same SESQL results through the full enrichment pipeline.
	for _, q := range enrichedQueries {
		want, err := e.Query("alice", q)
		if err != nil {
			t.Fatalf("query original: %v", err)
		}
		got, err := restored.Query("alice", q)
		if err != nil {
			t.Fatalf("query restored: %v", err)
		}
		if !reflect.DeepEqual(resultRows(want), resultRows(got)) {
			t.Fatalf("query %q differs after restore:\n got %v\nwant %v", q, resultRows(got), resultRows(want))
		}
	}
	// Plain SQL against the restored databank.
	want, err := e.DB.Query(`SELECT name FROM landfill`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.Query(`SELECT name FROM landfill`)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resultRows(want), resultRows(got)) {
		t.Fatalf("databank rows differ after restore")
	}
	// The stored dangerQuery still resolves for the restored platform.
	if _, ok := p.LookupQuery("alice", "dangerQuery"); !ok {
		t.Fatalf("stored query lost in restore")
	}
}

func TestImageChecksum(t *testing.T) {
	e := fixture(t)
	var img bytes.Buffer
	if err := WriteImage(&img, e.DB, e.Platform); err != nil {
		t.Fatal(err)
	}
	raw := img.Bytes()

	// Flip one payload byte: the checksum must catch it.
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x40
	if _, _, _, err := ReadImageLSN(bytes.NewReader(flipped)); err == nil {
		t.Fatalf("bit flip restored without error")
	}
	// Truncation fails too.
	if _, _, _, err := ReadImageLSN(bytes.NewReader(raw[:len(raw)-2])); err == nil {
		t.Fatalf("truncated image restored without error")
	}
	if _, _, _, err := ReadImageLSN(bytes.NewReader([]byte("NOTANIMAGE"))); err == nil {
		t.Fatalf("bad magic accepted")
	}
}

// Every proper prefix of a valid image must be rejected. Recovery can
// meet a torn image after a crash mid-save (the rename is atomic, but a
// copied or half-restored file is not), and a truncated image must fail
// cleanly at every possible cut — never load as a silently partial
// platform.
func TestImageTruncationSeries(t *testing.T) {
	e := fixture(t)
	var img bytes.Buffer
	if err := WriteImageLSN(&img, e.DB, e.Platform, 42); err != nil {
		t.Fatal(err)
	}
	raw := img.Bytes()
	if _, _, lsn, err := ReadImageLSN(bytes.NewReader(raw)); err != nil || lsn != 42 {
		t.Fatalf("full image: lsn=%d err=%v", lsn, err)
	}
	for n := range raw {
		if _, _, _, err := ReadImageLSN(bytes.NewReader(raw[:n])); err == nil {
			t.Fatalf("prefix of %d/%d bytes loaded successfully", n, len(raw))
		}
	}
}

func TestImageFileSaveLoad(t *testing.T) {
	e := fixture(t)
	path := filepath.Join(t.TempDir(), "platform.img")
	load := func(path string) (*engine.DB, *kb.Platform, error) {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		db, p, _, err := ReadImageLSN(bytes.NewReader(raw))
		return db, p, err
	}

	size, err := saveImageFS(wal.OS, path, e.DB, e.Platform, 0)
	if err != nil {
		t.Fatalf("saveImageFS: %v", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != size || size == 0 {
		t.Fatalf("reported size %d, file has %d", size, st.Size())
	}

	db, p, err := load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got, want := p.Users(), e.Platform.Users(); !reflect.DeepEqual(got, want) {
		t.Fatalf("users = %v, want %v", got, want)
	}
	if db.Catalog().Names() == nil {
		t.Fatalf("restored databank is empty")
	}

	// A failed save must not clobber the existing image: saving over a
	// read-only directory fails, the original stays loadable.
	if _, err := saveImageFS(wal.OS, filepath.Join(t.TempDir(), "missing", "x.img"), e.DB, e.Platform, 0); err == nil {
		t.Fatalf("save into missing directory succeeded")
	}
	if _, _, err := load(path); err != nil {
		t.Fatalf("original image unreadable after failed save: %v", err)
	}
}
