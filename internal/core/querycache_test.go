package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestQueryCacheReusesCompiledQueries(t *testing.T) {
	e := fixture(t)
	// Two texts differing only in a WHERE literal share one compiled shape.
	sp1, _, _, err := e.shape(`SELECT elem_name FROM elem_contained WHERE landfill_name = 'a' ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)`)
	if err != nil {
		t.Fatal(err)
	}
	sp2, lits, _, err := e.shape(`SELECT elem_name FROM elem_contained WHERE landfill_name = 'b' ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)`)
	if err != nil {
		t.Fatal(err)
	}
	if sp1 != sp2 {
		t.Error("second text of the shape must return the cached plan")
	}
	if len(lits.Vals) != 1 || lits.Vals[0].Str() != "b" {
		t.Errorf("literal vector = %v, want [b]", lits.Vals)
	}

	const sparqlText = `SELECT ?s ?o WHERE { ?s <http://x/p> ?o }`
	s1, err := e.cache.SPARQLPlan(sparqlText)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := e.cache.SPARQLPlan(sparqlText)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Error("second SPARQL compile must return the cached object")
	}

	hits, misses := e.cache.Stats()
	if hits != 2 || misses != 2 {
		t.Errorf("stats = (%d hits, %d misses), want (2, 2)", hits, misses)
	}
}

func TestQueryCacheDoesNotCacheErrors(t *testing.T) {
	e := fixture(t)
	for i := 0; i < 2; i++ {
		for _, text := range []string{"SELEKT nope", "SELECT nope FROM elem_contained WHERE nope = 1"} {
			if _, _, _, err := e.shape(text); err == nil {
				t.Fatalf("%q must fail", text)
			}
		}
		if _, err := e.cache.SPARQLPlan("SELEKT nope"); err == nil {
			t.Fatal("bad SPARQL must fail")
		}
	}
	if n, m := e.cache.shapes.Len(), e.cache.sparql.Len(); n != 0 || m != 0 {
		t.Errorf("failures must not populate the cache: %d shapes, %d SPARQL plans", n, m)
	}
	if hits, _ := e.cache.Stats(); hits != 0 {
		t.Errorf("failures must never hit, got %d hits", hits)
	}
}

func TestQueryCacheBound(t *testing.T) {
	e := fixture(t)
	e.SetQueryCache(NewQueryCache(2))
	texts := []string{
		`SELECT name FROM landfill`,
		`SELECT city FROM landfill`,
		`SELECT name, city FROM landfill`,
	}
	for _, q := range texts {
		if _, err := e.Query("alice", q); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.cache.shapes.Len(); n != 2 {
		t.Errorf("shapes = %d, want the bound 2", n)
	}
	// The evicted shape recompiles on its next use: the bound only limits
	// memory, never correctness.
	if r, err := e.Query("alice", texts[0]); err != nil || len(r.Rows) != 3 {
		t.Fatalf("evicted shape: %v rows, err %v", r, err)
	}
}

func TestQueryCacheConcurrent(t *testing.T) {
	e := fixture(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				q := fmt.Sprintf(`SELECT elem_name FROM elem_contained WHERE landfill_name <> 'x%d' ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)`, g*1000+i)
				r, err := e.Query("alice", q)
				if err != nil {
					t.Error(err)
					return
				}
				if len(r.Rows) != 6 {
					t.Errorf("%d rows, want 6", len(r.Rows))
					return
				}
				if _, err := e.cache.SPARQLPlan(`SELECT ?s WHERE { ?s <http://x/p> ?o }`); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := e.cache.shapes.Len(); n != 1 {
		t.Errorf("800 texts of one shape left %d shape entries, want 1", n)
	}
}

// ddlFixture is the sample enricher plus a table q the tests alter.
func ddlFixture(t *testing.T) *Enricher {
	t.Helper()
	e := fixture(t)
	if _, err := e.DB.ExecScript(`
		CREATE TABLE q (id INT PRIMARY KEY, s TEXT);
		INSERT INTO q VALUES (1, 'a'), (2, 'b');
	`); err != nil {
		t.Fatal(err)
	}
	return e
}

// A compiled shape is reused verbatim while the schema stands still, and
// recompiled — never served stale — after any DDL.
func TestSQLPlanCacheEpochInvalidation(t *testing.T) {
	e := ddlFixture(t)
	const text = `SELECT s FROM q WHERE id > 0 ORDER BY id`
	sp := func() *shapePlan {
		t.Helper()
		sp, _, _, err := e.shape(text)
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	rows := func() string {
		t.Helper()
		r, err := e.Query("alice", text)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Join(resultRows(r), " ")
	}
	p1 := sp()
	if p2 := sp(); p1 != p2 {
		t.Error("same epoch: second lookup must return the cached plan")
	}

	// Data mutations never invalidate.
	if _, err := e.DB.Exec(`INSERT INTO q VALUES (3, 'c')`); err != nil {
		t.Fatal(err)
	}
	if sp() != p1 {
		t.Error("data mutation must not invalidate the cached plan")
	}
	if got := rows(); got != "a b c" {
		t.Errorf("cached plan sees %q, want a b c", got)
	}

	// DDL does: drop and recreate the table with different content — the
	// stale plan (bound to the old table) must not serve.
	if _, err := e.DB.ExecScript(`
		DROP TABLE q;
		CREATE TABLE q (id INT PRIMARY KEY, s TEXT);
		INSERT INTO q VALUES (9, 'z');
	`); err != nil {
		t.Fatal(err)
	}
	p4 := sp()
	if p4 == p1 {
		t.Fatal("DDL must invalidate the cached plan")
	}
	if got := rows(); got != "z" {
		t.Errorf("recompiled plan returned %q", got)
	}

	// CREATE INDEX is DDL too (it changes seek choices).
	before := e.DB.Catalog().SchemaEpoch()
	if _, err := e.DB.Exec(`CREATE INDEX idx_s ON q (s)`); err != nil {
		t.Fatal(err)
	}
	if e.DB.Catalog().SchemaEpoch() == before {
		t.Error("CREATE INDEX must bump the schema epoch")
	}
	if sp() == p4 {
		t.Error("CREATE INDEX must invalidate cached plans")
	}
}

// TestShapeCacheStaleEpochAgesOut: nothing sweeps the shape cache. After
// DDL a stale entry stops answering, the next miss for its shape replaces
// it in place, and a stale entry nobody asks for again ages out of the LRU
// bound, releasing the dropped table it pins.
func TestShapeCacheStaleEpochAgesOut(t *testing.T) {
	e := ddlFixture(t)
	e.SetQueryCache(NewQueryCache(2))
	if _, err := e.DB.Exec(`CREATE TABLE a (x INT)`); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{`SELECT x FROM a`, `SELECT s FROM q`} {
		if _, err := e.Query("alice", q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.DB.Exec(`DROP TABLE a`); err != nil {
		t.Fatal(err)
	}
	// The stale q plan is replaced in place: still two entries.
	if _, err := e.Query("alice", `SELECT s FROM q`); err != nil {
		t.Fatal(err)
	}
	if n := e.cache.shapes.Len(); n != 2 {
		t.Fatalf("entries = %d, want 2", n)
	}
	// A third shape evicts the coldest entry: the stale plan over a.
	if _, err := e.Query("alice", `SELECT id FROM q`); err != nil {
		t.Fatal(err)
	}
	k := e.shapeKey(e.DB.Catalog(), `SELECT x FROM a`)
	if _, ok := e.cache.shapes.Get(k, nil); ok {
		t.Error("the stale plan over the dropped table must have aged out")
	}
	if _, err := e.Query("alice", `SELECT x FROM a`); err == nil {
		t.Error("a dropped table must not answer")
	}
}

// Races DDL (epoch bumps) against shape-plan execution. Run under -race:
// the property is freedom from data races plus never observing a
// half-applied catalog — every execution sees either the old or the new
// world, and post-DDL lookups recompile.
func TestSQLPlanCacheDDLRace(t *testing.T) {
	e := fixture(t)
	if _, err := e.DB.Exec(`CREATE TABLE q (id INT PRIMARY KEY, s TEXT)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := e.DB.Exec(fmt.Sprintf(`INSERT INTO q VALUES (%d, 's%d')`, i, i%7)); err != nil {
			t.Fatal(err)
		}
	}

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
			if _, err := e.DB.Exec(fmt.Sprintf(`CREATE TABLE tmp_%d (x INT)`, i)); err != nil {
				t.Error(err)
				return
			}
			if i == 3 {
				if _, err := e.DB.Exec(`CREATE INDEX idx_qs ON q (s)`); err != nil {
					t.Error(err)
					return
				}
			}
			if _, err := e.DB.Exec(fmt.Sprintf(`DROP TABLE tmp_%d`, i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				// One shape, seven literals: s = 's<k>' holds for ids ≡ k (mod 7).
				k := (g + i) % 7
				r, err := e.Query("alice", fmt.Sprintf(`SELECT COUNT(*) FROM q WHERE s = 's%d'`, k))
				if err != nil {
					t.Error(err)
					return
				}
				want := int64(7)
				if k == 0 {
					want = 8
				}
				if got := r.Rows[0][0].Int(); got != want {
					t.Errorf("count for s%d = %d, want %d", k, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait() // readers first; then stop the DDL goroutine
	close(stop)
	ddlWG.Wait()
}

// The cache must be behaviour-transparent: repeated evaluations through the
// cache produce exactly the same results as a cold enricher (a fresh cache
// before each query), and
// the second run must be served from cache (hits advance, misses don't).
func TestEnricherCacheTransparent(t *testing.T) {
	queries := []string{
		`SELECT elem_name, landfill_name FROM elem_contained WHERE landfill_name = 'a'
ENRICH SCHEMAEXTENSION( elem_name, dangerLevel)`,
		`SELECT name, city FROM landfill ENRICH SCHEMAREPLACEMENT(city, inCountry)`,
	}
	cached := fixture(t)
	uncached := fixture(t)

	for round := 0; round < 2; round++ {
		for _, q := range queries {
			rc, err := cached.Query("alice", q)
			if err != nil {
				t.Fatal(err)
			}
			uncached.SetQueryCache(NewQueryCache(0))
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
	if h, _ := uncached.QueryCacheStats(); h != 0 {
		t.Errorf("a fresh cache per query must not hit, got %d hits", h)
	}
}
