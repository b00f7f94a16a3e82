package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"crosse/internal/engine"
	"crosse/internal/sqlexec"
	"crosse/internal/sqlparser"
)

func TestQueryCacheReusesCompiledQueries(t *testing.T) {
	c := NewQueryCache(0)
	const sesqlText = `SELECT a FROM t ENRICH SCHEMAEXTENSION(a, p)`
	q1, err := c.SESQL(sesqlText)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := c.SESQL(sesqlText)
	if err != nil {
		t.Fatal(err)
	}
	if q1 != q2 {
		t.Error("second SESQL compile must return the cached object")
	}

	const sparqlText = `SELECT ?s ?o WHERE { ?s <http://x/p> ?o }`
	s1, err := c.SPARQLPlan(sparqlText)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.SPARQLPlan(sparqlText)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Error("second SPARQL compile must return the cached object")
	}

	hits, misses := c.Stats()
	if hits != 2 || misses != 2 {
		t.Errorf("stats = (%d hits, %d misses), want (2, 2)", hits, misses)
	}
}

func TestQueryCacheDoesNotCacheErrors(t *testing.T) {
	c := NewQueryCache(0)
	for i := 0; i < 2; i++ {
		if _, err := c.SESQL("SELEKT nope"); err == nil {
			t.Fatal("bad SESQL must fail")
		}
		if _, err := c.SPARQLPlan("SELEKT nope"); err == nil {
			t.Fatal("bad SPARQL must fail")
		}
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 0 {
		t.Errorf("parse failures must not populate the cache, stats = (%d, %d)", hits, misses)
	}
}

func TestQueryCacheBound(t *testing.T) {
	c := NewQueryCache(2)
	texts := []string{
		`SELECT a FROM t`,
		`SELECT b FROM t`,
		`SELECT c FROM t`,
	}
	for _, q := range texts {
		if _, err := c.SESQL(q); err != nil {
			t.Fatal(err)
		}
	}
	// Overflow flushed the map; re-compiling the survivor is a miss, not a
	// crash — the bound only limits memory, never correctness.
	if _, err := c.SESQL(texts[2]); err != nil {
		t.Fatal(err)
	}
}

func TestQueryCacheConcurrent(t *testing.T) {
	c := NewQueryCache(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := c.SESQL(`SELECT a FROM t ENRICH SCHEMAEXTENSION(a, p)`); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.SPARQLPlan(`SELECT ?s WHERE { ?s <http://x/p> ?o }`); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// parseSelect parses a SELECT text for SQLSelect's miss path.
func parseSelect(t *testing.T, text string) func() (*sqlparser.Select, error) {
	t.Helper()
	return func() (*sqlparser.Select, error) {
		st, err := sqlparser.Parse(text)
		if err != nil {
			return nil, err
		}
		return st.(*sqlparser.Select), nil
	}
}

// A cached SQL physical plan is reused verbatim while the schema stands
// still, and recompiled — never served stale — after any DDL.
func TestSQLPlanCacheEpochInvalidation(t *testing.T) {
	db := engine.Open()
	if _, err := db.Exec(`CREATE TABLE q (id INT PRIMARY KEY, s TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO q VALUES (1, 'a'), (2, 'b')`); err != nil {
		t.Fatal(err)
	}
	c := NewQueryCache(0)
	const text = `SELECT s FROM q ORDER BY id`

	p1, err := c.SQLSelect(db.Catalog(), text, sqlexec.Options{}, parseSelect(t, text))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.SQLSelect(db.Catalog(), text, sqlexec.Options{}, parseSelect(t, text))
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("same epoch: second lookup must return the cached plan")
	}

	// Data mutations never invalidate.
	if _, err := db.Exec(`INSERT INTO q VALUES (3, 'c')`); err != nil {
		t.Fatal(err)
	}
	if p3, _ := c.SQLSelect(db.Catalog(), text, sqlexec.Options{}, parseSelect(t, text)); p3 != p1 {
		t.Error("data mutation must not invalidate the cached plan")
	}
	res, err := p1.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("cached plan sees %d rows, want 3", len(res.Rows))
	}

	// DDL does: drop and recreate the table with different content — the
	// stale plan (bound to the old table) must not serve.
	if _, err := db.Exec(`DROP TABLE q`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE TABLE q (id INT PRIMARY KEY, s TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO q VALUES (9, 'z')`); err != nil {
		t.Fatal(err)
	}
	p4, err := c.SQLSelect(db.Catalog(), text, sqlexec.Options{}, parseSelect(t, text))
	if err != nil {
		t.Fatal(err)
	}
	if p4 == p1 {
		t.Fatal("DDL must invalidate the cached plan")
	}
	res, err = p4.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "z" {
		t.Errorf("recompiled plan returned %v", res.Rows)
	}

	// CREATE INDEX is DDL too (it changes seek choices).
	before := db.Catalog().SchemaEpoch()
	if _, err := db.Exec(`CREATE INDEX idx_s ON q (s)`); err != nil {
		t.Fatal(err)
	}
	if db.Catalog().SchemaEpoch() == before {
		t.Error("CREATE INDEX must bump the schema epoch")
	}
	if p5, _ := c.SQLSelect(db.Catalog(), text, sqlexec.Options{}, parseSelect(t, text)); p5 == p4 {
		t.Error("CREATE INDEX must invalidate cached plans")
	}
}

// A schema change must not leave plans for the old epoch pinning dropped
// tables: the next miss for that database sweeps its stale entries.
func TestSQLPlanCacheSweepsStaleEpochs(t *testing.T) {
	db := engine.Open()
	if _, err := db.Exec(`CREATE TABLE a (x INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE TABLE b (y INT)`); err != nil {
		t.Fatal(err)
	}
	c := NewQueryCache(0)
	for _, q := range []string{`SELECT x FROM a`, `SELECT y FROM b`} {
		if _, err := c.SQLSelect(db.Catalog(), q, sqlexec.Options{}, parseSelect(t, q)); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.sqlLen(); n != 2 {
		t.Fatalf("entries = %d, want 2", n)
	}
	if _, err := db.Exec(`DROP TABLE a`); err != nil {
		t.Fatal(err)
	}
	// Next miss (any text, same db) sweeps every stale-epoch entry —
	// including the plan still holding the dropped table a.
	if _, err := c.SQLSelect(db.Catalog(), `SELECT y FROM b`, sqlexec.Options{}, parseSelect(t, `SELECT y FROM b`)); err != nil {
		t.Fatal(err)
	}
	if n := c.sqlLen(); n != 1 {
		t.Fatalf("entries after sweep = %d, want 1", n)
	}
}

// Races DDL (epoch bumps) against cached-plan execution. Run under -race:
// the property is freedom from data races plus never observing a
// half-applied catalog — every execution sees either the old or the new
// world, and post-DDL lookups recompile.
func TestSQLPlanCacheDDLRace(t *testing.T) {
	db := engine.Open()
	if _, err := db.Exec(`CREATE TABLE q (id INT PRIMARY KEY, s TEXT)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := db.Exec(fmt.Sprintf(`INSERT INTO q VALUES (%d, 's%d')`, i, i%7)); err != nil {
			t.Fatal(err)
		}
	}
	c := NewQueryCache(0)
	const text = `SELECT COUNT(*) FROM q WHERE s = 's3'`

	var wg, ddlWG sync.WaitGroup
	stop := make(chan struct{})
	ddlWG.Add(1)
	go func() { // DDL churn: unrelated tables plus an index on the hot column
		defer ddlWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.Exec(fmt.Sprintf(`CREATE TABLE tmp_%d (x INT)`, i)); err != nil {
				t.Error(err)
				return
			}
			if i == 3 {
				if _, err := db.Exec(`CREATE INDEX idx_qs ON q (s)`); err != nil {
					t.Error(err)
					return
				}
			}
			if _, err := db.Exec(fmt.Sprintf(`DROP TABLE tmp_%d`, i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				p, err := c.SQLSelect(db.Catalog(), text, sqlexec.Options{}, parseSelect(t, text))
				if err != nil {
					t.Error(err)
					return
				}
				res, err := p.Run()
				if err != nil {
					t.Error(err)
					return
				}
				if got := res.Rows[0][0].Int(); got != 7 {
					t.Errorf("count = %d, want 7", got)
					return
				}
			}
		}()
	}
	wg.Wait() // readers first; then stop the DDL goroutine
	close(stop)
	ddlWG.Wait()
}

// The cache must be behaviour-transparent: repeated evaluations through the
// cache produce exactly the same results as a cache-disabled enricher, and
// the second run must be served from cache (hits advance, misses don't).
func TestEnricherCacheTransparent(t *testing.T) {
	queries := []string{
		`SELECT elem_name, landfill_name FROM elem_contained WHERE landfill_name = 'a'
ENRICH SCHEMAEXTENSION( elem_name, dangerLevel)`,
		`SELECT name, city FROM landfill ENRICH SCHEMAREPLACEMENT(city, inCountry)`,
	}
	cached := fixture(t)
	uncached := fixture(t)
	uncached.SetQueryCache(nil)

	for round := 0; round < 2; round++ {
		for _, q := range queries {
			rc, err := cached.Query("alice", q)
			if err != nil {
				t.Fatal(err)
			}
			ru, err := uncached.Query("alice", q)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Join(rc.Columns, ",") != strings.Join(ru.Columns, ",") {
				t.Errorf("round %d: columns differ: %v vs %v", round, rc.Columns, ru.Columns)
			}
			if strings.Join(resultRows(rc), " ") != strings.Join(resultRows(ru), " ") {
				t.Errorf("round %d: rows differ for %q", round, q)
			}
		}
	}
	hits, misses := cached.QueryCacheStats()
	if hits == 0 {
		t.Error("second round must be served from the compiled-query cache")
	}
	// Each distinct SESQL text and constructed SPARQL text compiles once.
	firstRoundMisses := misses
	for _, q := range queries {
		if _, err := cached.Query("alice", q); err != nil {
			t.Fatal(err)
		}
	}
	if _, misses2 := cached.QueryCacheStats(); misses2 != firstRoundMisses {
		t.Errorf("extra rounds must not compile again: misses %d -> %d", firstRoundMisses, misses2)
	}
	if h, m := uncached.QueryCacheStats(); h != 0 || m != 0 {
		t.Errorf("disabled cache must report zero stats, got (%d, %d)", h, m)
	}
}
