package core

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"sort"
	"sync"
	"testing"

	"crosse/internal/engine"
	"crosse/internal/kb"
	"crosse/internal/rdf"
	"crosse/internal/sparql"
	"crosse/internal/wal"
)

// journalFixture opens a journal over real files whose bootstrap is the
// standard enrichment fixture schema plus registered users.
func journalFixture(t *testing.T, dir string, users ...string) (*Journal, bool) {
	t.Helper()
	j, restored, err := OpenJournal(dir, JournalOptions{Sync: wal.SyncAlways}, func() (*engine.DB, *kb.Platform, error) {
		db := engine.Open()
		if _, err := db.ExecScript(`
			CREATE TABLE landfill (name TEXT PRIMARY KEY, city TEXT);
			INSERT INTO landfill VALUES ('a', 'Torino'), ('b', 'Milano');
		`); err != nil {
			return nil, nil, err
		}
		p := kb.NewPlatform()
		for _, u := range users {
			if err := p.RegisterUser(u); err != nil {
				return nil, nil, err
			}
		}
		return db, p, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return j, restored
}

// A journal must survive restarts: everything acknowledged before Close
// is there after reopening, statement ids keep counting from where they
// left off, and compaction does not change observable state.
func TestJournalRestartContinuity(t *testing.T) {
	dir := t.TempDir()
	j, restored := journalFixture(t, dir, "ada", "ben")
	if restored {
		t.Fatal("fresh dir reported restored")
	}
	id1, err := j.Insert("ada", rdf.Triple{S: smg("Mercury"), P: smg("dangerLevel"), O: lit("high")},
		kb.WithReference(kb.Reference{Title: "assay", Author: "ada"}))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Import("ben", id1); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Exec("INSERT INTO landfill VALUES ('c', 'Lyon')"); err != nil {
		t.Fatal(err)
	}
	if err := j.RegisterQuery("ada", "hazards", `SELECT ?x WHERE { ?x <`+DefaultIRIPrefix+`dangerLevel> "high" }`); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, restored := journalFixture(t, dir, "ada", "ben")
	if !restored {
		t.Fatal("existing dir not restored")
	}
	st, err := j2.Platform().Statement(id1)
	if err != nil {
		t.Fatalf("statement lost: %v", err)
	}
	if st.Ref == nil || st.Ref.Title != "assay" || !st.BelievedBy("ben") {
		t.Fatalf("statement state lost: %+v", st)
	}
	if _, ok := j2.Platform().LookupQuery("ada", "hazards"); !ok {
		t.Fatal("stored query lost")
	}
	r, err := j2.Exec("SELECT name FROM landfill")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("landfill rows = %d, want 3 (SQL mutation lost)", len(r.Rows))
	}
	if j2.Status().LSN != 4 {
		t.Fatalf("LSN = %d, want 4", j2.Status().LSN)
	}

	// Ids continue the original sequence after recovery.
	id2, err := j2.Insert("ben", rdf.Triple{S: smg("Lead"), P: smg("dangerLevel"), O: lit("high")})
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id1 {
		t.Fatalf("id collision after restart: %s", id2)
	}

	// Compaction folds the log into the image without changing state.
	before, err := probeCrashLike(j2)
	if err != nil {
		t.Fatal(err)
	}
	cst, err := j2.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cst.Start != cst.LSN || cst.Start != 5 {
		t.Fatalf("compacted status: %+v", cst)
	}
	j2.Close()

	j3, restored := journalFixture(t, dir, "ada", "ben")
	if !restored {
		t.Fatal("post-compaction dir not restored")
	}
	defer j3.Close()
	after, err := probeCrashLike(j3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("compaction changed state\n--- before\n%+v\n--- after\n%+v", before, after)
	}
}

// A backup image (WriteImage, anchor LSN 0) placed alone as platform.img
// is a journal directory: OpenJournal restores it and starts the log at
// its anchor, and the next mutation is LSN 1 and survives a reopen.
func TestJournalOpensBackupImage(t *testing.T) {
	src := fixture(t)
	var img bytes.Buffer
	if err := WriteImage(&img, src.DB, src.Platform); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(ImagePath(dir), img.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	open := func() *Journal {
		t.Helper()
		j, restored, err := OpenJournal(dir, JournalOptions{Sync: wal.SyncAlways}, func() (*engine.DB, *kb.Platform, error) {
			return nil, nil, fmt.Errorf("bootstrap called on a directory holding an image")
		})
		if err != nil || !restored {
			t.Fatalf("OpenJournal: restored=%v, %v", restored, err)
		}
		return j
	}
	dump := func(db *engine.DB, p *kb.Platform) []string {
		t.Helper()
		r, err := db.Query("SELECT elem_name, landfill_name FROM elem_contained")
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, row := range r.Rows {
			out = append(out, row[0].String()+"|"+row[1].String())
		}
		g, err := p.View("alice")
		if err != nil {
			t.Fatal(err)
		}
		rdf.ForEach(g, rdf.Pattern{}, func(tr rdf.Triple) bool {
			out = append(out, tr.String())
			return true
		})
		sort.Strings(out)
		return append(out, fmt.Sprint(p.Users()))
	}

	j := open()
	if st := j.Status(); st.Start != 0 || st.LSN != 0 {
		t.Fatalf("status after opening a backup: %+v, want anchor and LSN 0", st)
	}
	if _, err := os.Stat(LogPath(dir)); err != nil {
		t.Fatalf("log not created: %v", err)
	}
	want := dump(src.DB, src.Platform)
	if len(want) != 6+11+1 {
		t.Fatalf("fixture dump has %d entries, want 6 rows, 11 triples and the user list", len(want))
	}
	if got := dump(j.DB(), j.Platform()); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored state differs\n got %v\nwant %v", got, want)
	}
	id, err := j.Insert("alice", rdf.Triple{S: smg("Gold"), P: smg("dangerLevel"), O: lit("low")})
	if err != nil {
		t.Fatal(err)
	}
	if lsn := j.Status().LSN; lsn != 1 {
		t.Fatalf("first insert at LSN %d, want 1", lsn)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j = open()
	defer j.Close()
	if lsn := j.Status().LSN; lsn != 1 {
		t.Fatalf("LSN after reopen %d, want 1", lsn)
	}
	if _, err := j.Platform().Statement(id); err != nil {
		t.Fatalf("insert lost across reopen: %v", err)
	}
}

func probeCrashLike(j *Journal) (map[string]any, error) {
	p := j.Platform()
	var stmts []string
	for _, st := range p.Explore(nil) {
		stmts = append(stmts, fmt.Sprintf("%s|%s|%s|%v", st.ID, st.Owner, st.Triple, st.Believers()))
	}
	r, err := j.Exec("SELECT name, city FROM landfill")
	if err != nil {
		return nil, err
	}
	var rows []string
	for _, row := range r.Rows {
		rows = append(rows, row[0].String()+"|"+row[1].String())
	}
	sizes := map[string]int{}
	for _, u := range p.Users() {
		sizes[u] = p.ViewSize(u)
	}
	return map[string]any{"stmts": stmts, "rows": rows, "sizes": sizes, "users": p.Users()}, nil
}

// SELECTs must not touch the log; mutating SQL must append exactly one
// record.
func TestJournalExecLogsOnlyWrites(t *testing.T) {
	j, _ := journalFixture(t, t.TempDir(), "ada")
	defer j.Close()
	base := j.Status().LSN
	if _, err := j.Exec("SELECT name FROM landfill"); err != nil {
		t.Fatal(err)
	}
	if got := j.Status().LSN; got != base {
		t.Fatalf("SELECT appended a record: LSN %d → %d", base, got)
	}
	if _, err := j.Exec("INSERT INTO landfill VALUES ('d', 'Graz')"); err != nil {
		t.Fatal(err)
	}
	if got := j.Status().LSN; got != base+1 {
		t.Fatalf("INSERT appended %d records, want 1", got-base)
	}
}

// An ImportFrom that imports nothing must not append a record (replaying
// an empty batch is fine, but a record per no-op would make the log grow
// with idempotent retries).
func TestJournalImportFromNoOp(t *testing.T) {
	j, _ := journalFixture(t, t.TempDir(), "ada", "ben")
	defer j.Close()
	base := j.Status().LSN
	n, err := j.ImportFrom("ben", "ada", nil) // ada owns nothing yet
	if err != nil || n != 0 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if got := j.Status().LSN; got != base {
		t.Fatalf("empty ImportFrom appended a record")
	}
}

// An Import the user already believes (a repeat, or the owner importing
// their own statement) changes nothing, so it must neither append a
// record nor wait for an fsync under SyncAlways.
func TestJournalImportNoOp(t *testing.T) {
	j, _, err := OpenJournal("j", JournalOptions{FS: wal.NewMemFS(), Sync: wal.SyncAlways}, func() (*engine.DB, *kb.Platform, error) {
		p := kb.NewPlatform()
		for _, u := range []string{"ada", "ben"} {
			if err := p.RegisterUser(u); err != nil {
				return nil, nil, err
			}
		}
		return engine.Open(), p, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	id, err := j.Insert("ada", rdf.Triple{S: smg("Lead"), P: smg("dangerLevel"), O: lit("high")})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Import("ben", id); err != nil {
		t.Fatal(err)
	}
	base := j.Status()
	for _, user := range []string{"ben", "ada"} {
		if err := j.Import(user, id); err != nil {
			t.Fatal(err)
		}
		if got := j.Status(); got.LSN != base.LSN || got.Syncs != base.Syncs {
			t.Fatalf("no-op Import(%s) moved the log: LSN %d→%d, syncs %d→%d",
				user, base.LSN, got.LSN, base.Syncs, got.Syncs)
		}
	}
}

// TestJournalAppendsVsStreamedReads races write-ahead-logged mutations
// against streamed SPARQL reads and SESQL enrichment over the overlay
// views. Run with -race: the journal's lock covers {apply + append} but
// reads go straight to the platform's own RWMutex, so this validates the
// two locking regimes compose.
func TestJournalAppendsVsStreamedReads(t *testing.T) {
	dir := t.TempDir()
	users := []string{"r0", "r1", "r2", "expert"}
	j, _ := journalFixture(t, dir, users...)

	// Seed a corpus the readers stream over while writers mutate.
	for i := 0; i < 50; i++ {
		if _, err := j.Insert("expert", rdf.Triple{
			S: smg(fmt.Sprintf("E%d", i)), P: smg("dangerLevel"), O: lit("high"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	e := New(j.DB(), j.Platform(), nil)

	const writers, readers, rounds = 3, 3, 25
	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers+1)

	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			user := fmt.Sprintf("r%d", w)
			for i := 0; i < rounds; i++ {
				id, err := j.Insert(user, rdf.Triple{
					S: smg(fmt.Sprintf("W%d_%d", w, i)), P: smg("isA"), O: smg("HazardousWaste"),
				})
				if err != nil {
					errCh <- err
					return
				}
				if i%3 == 0 {
					if _, err := j.ImportFrom(user, "expert", nil); err != nil {
						errCh <- err
						return
					}
				}
				if i%5 == 4 {
					if err := j.Retract(user, id); err != nil {
						errCh <- err
						return
					}
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			user := fmt.Sprintf("r%d", r)
			for i := 0; i < rounds; i++ {
				view, err := e.Platform.View(user)
				if err != nil {
					errCh <- err
					return
				}
				if _, err := sparql.Eval(view, `SELECT ?s WHERE { ?s <`+DefaultIRIPrefix+`dangerLevel> "high" }`); err != nil {
					errCh <- err
					return
				}
				if _, err := e.Query(user, "SELECT name, city FROM landfill WHERE city < 'zzz'"); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	// A compactor races both: image + rotate under the journal lock.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, err := j.Compact(); err != nil {
				errCh <- fmt.Errorf("compact: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	lsn := j.Status().LSN
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Everything the race acknowledged recovers.
	j2, restored := journalFixture(t, dir, users...)
	defer j2.Close()
	if !restored || j2.Status().LSN != lsn {
		t.Fatalf("recovered LSN %d (restored=%v), want %d", j2.Status().LSN, restored, lsn)
	}
}

// A failed Exec must leave the live databank where the log puts it after a
// reopen: a statement that changed rows before failing is logged and
// replayed, and a script stops at its failing statement with the
// statements before it logged.
func TestJournalExecFailureMatchesReplay(t *testing.T) {
	cases := []struct {
		name, sql     string
		rows, records int
	}{
		{"duplicate key", `INSERT INTO landfill VALUES ('c', 'x'), ('a', 'dup')`, 3, 1},
		{"division by zero", `INSERT INTO landfill VALUES ('d', 'x'), ('e', 1/0)`, 3, 1},
		{"script", `INSERT INTO landfill VALUES ('f', 'x'); INSERT INTO nosuch VALUES (1)`, 3, 1},
		{"nothing changed", `INSERT INTO landfill VALUES ('a', 'dup')`, 2, 0},
		{"failing update", `UPDATE landfill SET city = CASE WHEN name = 'b' THEN 1/0 ELSE 'y' END`, 2, 1},
	}
	count := func(j *Journal) int {
		t.Helper()
		r, err := j.Exec("SELECT name, city FROM landfill")
		if err != nil {
			t.Fatal(err)
		}
		return len(r.Rows)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			j, _ := journalFixture(t, dir)
			base := j.Status().LSN
			if _, err := j.Exec(c.sql); err == nil {
				t.Fatalf("%s: want an error", c.sql)
			}
			if got := int(j.Status().LSN - base); got != c.records {
				t.Errorf("%d records logged, want %d", got, c.records)
			}
			live, _ := j.Exec("SELECT name, city FROM landfill ORDER BY name")
			n := count(j)
			if n != c.rows {
				t.Errorf("%d rows live, want %d", n, c.rows)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			j2, restored := journalFixture(t, dir)
			defer j2.Close()
			if !restored {
				t.Fatal("reopen did not restore")
			}
			if got := count(j2); got != n {
				t.Errorf("%d rows live, %d after reopen", n, got)
			}
			again, _ := j2.Exec("SELECT name, city FROM landfill ORDER BY name")
			if !reflect.DeepEqual(live.Rows, again.Rows) {
				t.Errorf("live rows %v, after reopen %v", live.Rows, again.Rows)
			}
		})
	}
}
