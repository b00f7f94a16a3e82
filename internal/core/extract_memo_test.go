package core

// Context-extract memo: an enricher serving extracts from its per-view-epoch
// memo must answer exactly what an enricher with no cache answers, under
// every mutation that can change a user's context, and never hand one
// user's (or one platform's) context to another.

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"crosse/internal/engine"
	"crosse/internal/kb"
	"crosse/internal/rdf"
	"crosse/internal/wal"
)

// memoQueries are the six Sec. IV strategies; %d takes a literal that
// changes the SESQL and base SQL texts but not the answer or the extract.
var memoQueries = []string{
	`SELECT elem_name, landfill_name FROM elem_contained WHERE landfill_name <> 'x%d' ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)`,
	`SELECT name, city FROM landfill WHERE name <> 'x%d' ENRICH SCHEMAREPLACEMENT(city, inCountry)`,
	`SELECT elem_name, landfill_name FROM elem_contained WHERE landfill_name <> 'x%d' ENRICH BOOLSCHEMAEXTENSION(elem_name, isA, HazardousWaste)`,
	`SELECT name, city FROM landfill WHERE name <> 'x%d' ENRICH BOOLSCHEMAREPLACEMENT(city, inCountry, Italy)`,
	`SELECT landfill_name, elem_name FROM elem_contained WHERE landfill_name <> 'x%d' AND ${elem_name = HazardousWaste:c1} ENRICH REPLACECONSTANT(c1, HazardousWaste, dq)`,
	`SELECT landfill_name, elem_name FROM elem_contained WHERE landfill_name <> 'x%d' AND ${elem_name = 'Lead':c1} ENRICH REPLACEVARIABLE(c1, elem_name, oreAssemblage)`,
}

const memoMarker = "only-" // dangerLevel literals that must stay with their owner

// TestContextMemoInvalidationProperty drives random interleavings of every
// context mutation over three users — insert, retract, owner-retract of a
// statement others believe, import, owned and shared stored-query
// registration — and after every step compares each user's answers to the
// six strategies through the memo with those of a cold enricher, which
// gets a fresh cache before each query.
func TestContextMemoInvalidationProperty(t *testing.T) {
	users := []string{"u0", "u1", "u2"}
	elems := []string{"Mercury", "Lead", "Zinc", "Gold", "Asbestos"}
	cities := []string{"Torino", "Milano", "Lyon"}
	countries := []string{"Italy", "France"}
	dqTexts := []string{
		`SELECT ?x WHERE { ?x <` + DefaultIRIPrefix + `isA> <` + DefaultIRIPrefix + `HazardousWaste> }`,
		`SELECT ?x WHERE { ?x <` + DefaultIRIPrefix + `dangerLevel> "high" }`,
	}
	hits := 0
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := fixture(t)
		p := kb.NewPlatform()
		for _, u := range users {
			if err := p.RegisterUser(u); err != nil {
				t.Fatal(err)
			}
		}
		memo := New(base.DB, p, nil)
		cold := New(base.DB, p, nil)

		pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
		believedBy := func(u string) []*kb.Statement {
			return p.Explore(func(s *kb.Statement) bool { return s.BelievedBy(u) })
		}
		insert := func(u string) string {
			var tr rdf.Triple
			switch rng.Intn(4) {
			case 0:
				o := lit(pick([]string{"high", "low"}))
				if rng.Intn(3) == 0 {
					o = lit(memoMarker + u)
				}
				tr = rdf.Triple{S: smg(pick(elems)), P: smg("dangerLevel"), O: o}
			case 1:
				tr = rdf.Triple{S: smg(pick(elems)), P: smg("isA"), O: smg("HazardousWaste")}
			case 2:
				tr = rdf.Triple{S: smg(pick(cities)), P: smg("inCountry"), O: smg(pick(countries))}
			default:
				tr = rdf.Triple{S: smg(pick(elems)), P: smg("oreAssemblage"), O: smg(pick(elems))}
			}
			if _, err := p.Insert(u, tr); err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("%s inserts %v", u, tr)
		}
		step := func() string {
			u := pick(users)
			switch rng.Intn(6) {
			case 0: // retract a belief, owned or imported
				if sts := believedBy(u); len(sts) > 0 {
					st := sts[rng.Intn(len(sts))]
					if err := p.Retract(u, st.ID); err != nil {
						t.Fatal(err)
					}
					return fmt.Sprintf("%s retracts %s", u, st.ID)
				}
			case 1: // the owner retracts a statement someone else believes
				shared := p.Explore(func(s *kb.Statement) bool { return len(s.Believers()) > 1 })
				if len(shared) > 0 {
					st := shared[rng.Intn(len(shared))]
					if err := p.Retract(st.Owner, st.ID); err != nil {
						t.Fatal(err)
					}
					return fmt.Sprintf("owner %s retracts believed %s", st.Owner, st.ID)
				}
			case 2: // import another user's unmarked statement
				cands := p.Explore(func(s *kb.Statement) bool {
					return !s.BelievedBy(u) && !strings.HasPrefix(s.Triple.O.Value, memoMarker)
				})
				if len(cands) > 0 {
					st := cands[rng.Intn(len(cands))]
					if err := p.Import(u, st.ID); err != nil {
						t.Fatal(err)
					}
					return fmt.Sprintf("%s imports %s", u, st.ID)
				}
			case 3: // owned or shared stored query; a repeat is a no-op conflict
				owner := u
				if rng.Intn(3) == 0 {
					owner = ""
				}
				text := pick(dqTexts)
				if err := p.RegisterQuery(owner, "dq", text); err == nil {
					return fmt.Sprintf("%q registers dq = %s", owner, text)
				}
			}
			return insert(u)
		}

		for i := 0; i < 80; i++ {
			what := step()
			for _, u := range users {
				for qi, q := range memoQueries {
					text := fmt.Sprintf(q, rng.Intn(1<<20))
					got, st, err := memo.QueryStats(u, text)
					if err != nil {
						t.Fatalf("seed %d step %d (%s): %s query %d: %v", seed, i, what, u, qi, err)
					}
					hits += st.ContextHits
					cold.SetQueryCache(NewQueryCache(0))
					want, err := cold.Query(u, text)
					if err != nil {
						t.Fatal(err)
					}
					g, w := resultRows(got), resultRows(want)
					if strings.Join(g, " ") != strings.Join(w, " ") {
						t.Fatalf("seed %d step %d (%s): %s query %d:\nmemo %v\ncold %v", seed, i, what, u, qi, g, w)
					}
					for _, row := range g {
						for _, cell := range strings.Split(row, "|") {
							if strings.HasPrefix(cell, memoMarker) && cell != memoMarker+u {
								t.Fatalf("seed %d step %d: %s's answer holds %s", seed, i, u, cell)
							}
						}
					}
				}
			}
		}
	}
	if hits == 0 {
		t.Error("no extract was served from the memo")
	}
}

// Swapping the enricher's platform (the sesql shell's \loadkb) must never
// serve the old platform's extracts, even at an equal view epoch.
func TestContextMemoPlatformSwap(t *testing.T) {
	e := fixture(t)
	build := func(level string) *kb.Platform {
		p := kb.NewPlatform()
		if err := p.RegisterUser("alice"); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Insert("alice", rdf.Triple{S: smg("Mercury"), P: smg("dangerLevel"), O: lit(level)}); err != nil {
			t.Fatal(err)
		}
		return p
	}
	old, swapped := build("high"), build("low")
	if old.ViewEpoch("alice") != swapped.ViewEpoch("alice") {
		t.Fatal("the platforms must share alice's view epoch for this test to bite")
	}
	const q = `SELECT elem_name FROM elem_contained WHERE landfill_name = 'b' ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)`
	for _, c := range []struct {
		p    *kb.Platform
		want string
	}{{old, "Gold|NULL Mercury|high"}, {swapped, "Gold|NULL Mercury|low"}} {
		e.Platform = c.p
		r, err := e.Query("alice", q)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(resultRows(r), " "); got != c.want {
			t.Errorf("got %q, want %q", got, c.want)
		}
	}
}

// The memo is an LRU bounded by the cache's entry max.
func TestContextMemoBound(t *testing.T) {
	e := fixture(t)
	e.SetQueryCache(NewQueryCache(2))
	props := []string{"dangerLevel", "inCountry", "oreAssemblage"}
	query := func(prop string) *Stats {
		t.Helper()
		_, st, err := e.QueryStats("alice", `SELECT elem_name FROM elem_contained ENRICH SCHEMAEXTENSION(elem_name, `+prop+`)`)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	for _, prop := range props[:2] {
		query(prop)
	}
	if st := query(props[0]); st.ContextHits != 1 {
		t.Errorf("within the bound: context hits %d, want 1", st.ContextHits)
	}
	query(props[2]) // a third extract evicts the coldest, props[1]
	if n := e.cache.extracts.Len(); n != 2 {
		t.Errorf("after the bound tripped: %d entries, want 2", n)
	}
	if st := query(props[1]); st.ContextHits != 0 {
		t.Error("an evicted entry must not answer")
	}
	if st := query(props[2]); st.ContextHits != 1 {
		t.Error("the entry kept by the bound must answer")
	}
}

// TestContextMemoRaceJournaledWrites runs same-user queries concurrently
// with journaled mutations of that user's context. Meaningful chiefly
// under -race; the writer also checks read-your-writes through the memo
// after every acknowledged insert and retraction.
func TestContextMemoRaceJournaledWrites(t *testing.T) {
	bootstrap := func() (*engine.DB, *kb.Platform, error) {
		db := engine.Open()
		if _, err := db.ExecScript(`
			CREATE TABLE elem_contained (elem_name TEXT, landfill_name TEXT);
			INSERT INTO elem_contained VALUES ('Mercury', 'a'), ('Lead', 'a'), ('Zinc', 'b');
		`); err != nil {
			return nil, nil, err
		}
		p := kb.NewPlatform()
		if err := p.RegisterUser("ada"); err != nil {
			return nil, nil, err
		}
		_, err := p.Insert("ada", rdf.Triple{S: smg("Lead"), P: smg("dangerLevel"), O: lit("high")})
		return db, p, err
	}
	j, _, err := OpenJournal("j", JournalOptions{FS: wal.NewMemFS(), Sync: wal.SyncAlways}, bootstrap)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	enr := New(j.DB(), j.Platform(), nil)

	const q = `SELECT elem_name FROM elem_contained WHERE landfill_name <> 'x%d' ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)`
	levels := func(n int) (map[string]bool, error) {
		r, err := enr.Query("ada", fmt.Sprintf(q, n))
		if err != nil {
			return nil, err
		}
		out := map[string]bool{}
		for _, row := range r.Rows {
			if row[0].String() == "Mercury" {
				out[row[1].String()] = true
			}
		}
		return out, nil
	}

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	fail := func(format string, a ...any) {
		select {
		case errc <- fmt.Errorf(format, a...):
		default:
		}
	}
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := levels(1000*r + n%7); err != nil {
					fail("reader: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 60; i++ {
		level := fmt.Sprintf("w%d", i)
		id, err := j.Insert("ada", rdf.Triple{S: smg("Mercury"), P: smg("dangerLevel"), O: lit(level)})
		if err != nil {
			t.Fatal(err)
		}
		got, err := levels(-i)
		if err != nil {
			t.Fatal(err)
		}
		if !got[level] {
			t.Fatalf("insert %s not visible through the memo: %v", level, got)
		}
		if i%2 == 1 {
			if err := j.Retract("ada", id); err != nil {
				t.Fatal(err)
			}
			if got, err = levels(-i); err != nil {
				t.Fatal(err)
			}
			if got[level] {
				t.Fatalf("retracted %s still visible through the memo", level)
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
