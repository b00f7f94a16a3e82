package core

// parallel_race_test.go — concurrency regression for concurrent and
// intra-query-parallel reads: reader goroutines run SQL queries and
// SESQL-enrichment queries (Parallelism 4, fixtures large enough that the
// SPARQL morsel path actually engages) while a writer drives journaled
// mutations — SQL inserts, KB inserts, periodic compaction — through the
// same engine and platform. Meaningful chiefly under -race: the SPARQL
// morsel workers must only ever touch state frozen at materialisation
// time, and every live read must go through the table/store locks the
// writers take.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"crosse/internal/engine"
	"crosse/internal/kb"
	"crosse/internal/rdf"
	"crosse/internal/sqlval"
	"crosse/internal/wal"
)

// parallelRaceBootstrap builds a platform big enough that the SPARQL
// parallel path engages at its default threshold: 2600 KB triples on one
// predicate (the head gate is 2048), beside 5000 SQL rows.
func parallelRaceBootstrap() (*engine.DB, *kb.Platform, error) {
	db := engine.Open()
	if _, err := db.ExecScript(`
		CREATE TABLE pts (id INT PRIMARY KEY, k TEXT, v DOUBLE, n INT);
		CREATE TABLE dim (id INT PRIMARY KEY, grp TEXT);
	`); err != nil {
		return nil, nil, err
	}
	pts, _ := db.Catalog().Table("pts")
	dim, _ := db.Catalog().Table("dim")
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 5000; i++ {
		if err := pts.Insert([]sqlval.Value{
			sqlval.NewInt(int64(i)),
			sqlval.NewString(fmt.Sprintf("k%d", i%97)),
			sqlval.NewFloat(rng.Float64() * 1000),
			sqlval.NewInt(int64(rng.Intn(1000))),
		}); err != nil {
			return nil, nil, err
		}
	}
	for i := 0; i < 1000; i++ {
		if err := dim.Insert([]sqlval.Value{
			sqlval.NewInt(int64(i)),
			sqlval.NewString(fmt.Sprintf("g%d", i%13)),
		}); err != nil {
			return nil, nil, err
		}
	}
	p := kb.NewPlatform()
	if err := p.RegisterUser("ada"); err != nil {
		return nil, nil, err
	}
	for i := 0; i < 2600; i++ {
		if _, err := p.Insert("ada", rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("%sk%d", DefaultIRIPrefix, i%97)),
			P: rdf.NewIRI(DefaultIRIPrefix + "rank"),
			O: rdf.NewLiteral(fmt.Sprintf("r%d", i%7)),
		}); err != nil {
			return nil, nil, err
		}
	}
	return db, p, nil
}

// TestParallelQueriesRaceJournaledWrites is the -race acceptance test for
// the tentpole: concurrent parallel queries must be data-race-free
// against journaled writes and compaction. Results are only sanity-checked
// (the data moves under the readers); the property under test is the
// absence of races and of spurious errors.
func TestParallelQueriesRaceJournaledWrites(t *testing.T) {
	j, restored, err := OpenJournal("j", JournalOptions{FS: wal.NewMemFS(), Sync: wal.SyncAlways}, parallelRaceBootstrap)
	if err != nil || restored {
		t.Fatalf("bootstrap: restored=%v err=%v", restored, err)
	}
	defer j.Close()

	enr := New(j.DB(), j.Platform(), nil)
	enr.SetQueryCache(NewQueryCache(0))
	enr.SetExecOptions(ExecOptions{Parallelism: 4})

	const rounds = 40
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	fail := func(format string, a ...any) {
		select {
		case errc <- fmt.Errorf(format, a...):
		default:
		}
	}

	// Writer: journaled SQL inserts, KB inserts, periodic compaction.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds*3; i++ {
			if _, err := j.Exec(fmt.Sprintf(
				"INSERT INTO pts VALUES (%d, 'k%d', %d, %d)", 100000+i, i%97, i%1000, i%1000)); err != nil {
				fail("journal sql insert: %v", err)
				return
			}
			if _, err := j.Insert("ada", rdf.Triple{
				S: rdf.NewIRI(fmt.Sprintf("%sk%d", DefaultIRIPrefix, i%97)),
				P: rdf.NewIRI(DefaultIRIPrefix + "rank"),
				O: rdf.NewLiteral(fmt.Sprintf("w%d", i)),
			}); err != nil {
				fail("journal kb insert: %v", err)
				return
			}
			if i%20 == 19 {
				if _, err := j.Compact(); err != nil {
					fail("compact: %v", err)
					return
				}
			}
		}
	}()

	// SQL readers: each query shape exercises a distinct sink (grouped,
	// a join under a COUNT(*), sorted top-K).
	for _, q := range []string{
		`SELECT k, COUNT(*), MIN(v), MAX(v) FROM pts GROUP BY k`,
		`SELECT COUNT(*) FROM pts p JOIN dim d ON p.id = d.id WHERE p.n < 500`,
		`SELECT id, v FROM pts ORDER BY v DESC LIMIT 10`,
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				res, err := j.DB().Query(q)
				if err != nil {
					fail("%q: %v", q, err)
					return
				}
				if len(res.Rows) == 0 {
					fail("%q: no rows", q)
					return
				}
			}
		}()
	}

	// Enrichment reader: the full SESQL pipeline — parallel base query
	// plus the parallel SPARQL property probe over ada's live view.
	wg.Add(1)
	go func() {
		defer wg.Done()
		const q = `SELECT k, n FROM pts ENRICH SCHEMAEXTENSION(k, rank)`
		for i := 0; i < rounds; i++ {
			res, err := enr.Query("ada", q)
			if err != nil {
				fail("enrich: %v", err)
				return
			}
			if len(res.Rows) == 0 {
				fail("enrich: no rows")
				return
			}
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
