// Command walcheck proves crash recovery across real processes: serve mode
// opens a journal (image + write-ahead log), applies a deterministic
// mutation workload, and records the index of every acknowledged operation
// in an acked file; CI kills the process with SIGKILL mid-workload, and
// verify mode recovers the journal in a fresh process, checks that no
// acknowledged operation was lost, rebuilds a reference platform by
// re-running the workload prefix the log proves durable, and diffs
// SQL/SPARQL/pattern-count probes between the two. Because every workload
// operation appends exactly one log record, the recovered LSN IS the
// count of operations recovered, which makes the reference reproducible.
//
// Usage:
//
//	walcheck -mode serve  -dir state -ops 3000 -throttle 200us
//	kill -9 <pid>
//	walcheck -mode verify -dir state
//	walcheck -mode serve  -dir state -ops 3000   # run to completion
//	walcheck -mode verify -dir state -expect-ops 3000
package main

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"time"

	"crosse/internal/core"
	"crosse/internal/engine"
	"crosse/internal/kb"
	"crosse/internal/rdf"
	"crosse/internal/sparql"
	"crosse/internal/sqlexec"
	"crosse/internal/wal"
)

var users = []string{"uma", "vic", "wes"}

// bootstrap is the platform state at LSN 0, captured in the journal's
// first image: the registered users and the relational table the SQL
// workload writes into. Everything after it comes from the log.
func bootstrap() (*engine.DB, *kb.Platform, error) {
	db := engine.Open()
	if _, err := db.Exec("CREATE TABLE walcheck_events (id INT PRIMARY KEY, tag TEXT)"); err != nil {
		return nil, nil, err
	}
	p := kb.NewPlatform()
	for _, u := range users {
		if err := p.RegisterUser(u); err != nil {
			return nil, nil, err
		}
	}
	return db, p, nil
}

func iri(local string) rdf.Term { return rdf.NewIRI("http://walcheck.example/" + local) }

// genState is the workload generator's own state: the ids of statements
// inserted and not yet retracted. Its transitions depend only on the
// operation index, so re-running the generator for 1..m reproduces the
// state the crashed process had after acknowledging operation m.
type genState struct {
	live   []string
	nextID int // platform statement counter mirror: ids are "stmt-N"
}

// apply runs operation i (1-based) against a mutation surface. Every
// branch issues exactly one logged mutation.
func (g *genState) apply(i int, m core.Mutator, exec func(string) (*sqlexec.Result, error)) error {
	user := users[i%len(users)]
	switch i % 7 {
	case 0:
		_, err := exec(fmt.Sprintf("INSERT INTO walcheck_events VALUES (%d, 'evt-%d')", i, i))
		return err
	case 1, 2, 5:
		t := rdf.Triple{S: iri(fmt.Sprintf("thing-%d", i%97)), P: iri(fmt.Sprintf("rel-%d", i%13)), O: rdf.NewLiteral(fmt.Sprintf("v%d", i))}
		var opts []kb.InsertOption
		if i%4 == 1 {
			opts = append(opts, kb.WithReference(kb.Reference{Title: fmt.Sprintf("ref-%d", i), Author: user}))
		}
		id, err := m.Insert(user, t, opts...)
		if err != nil {
			return err
		}
		g.nextID++
		if want := fmt.Sprintf("stmt-%d", g.nextID); id != want {
			return fmt.Errorf("walcheck: op %d produced id %s, generator expected %s", i, id, want)
		}
		g.live = append(g.live, id)
		return nil
	case 3:
		if len(g.live) == 0 {
			return m.RegisterQuery(user, fmt.Sprintf("q-%d", i),
				fmt.Sprintf("SELECT ?s WHERE { ?s <http://walcheck.example/rel-%d> ?o }", i%13))
		}
		// A different user than the inserter rotation imports a believed-or-
		// not statement; importing one you already believe still logs one
		// record, so the one-record-per-op invariant holds either way.
		return m.Import(users[(i+1)%len(users)], g.live[i%len(g.live)])
	case 4:
		return m.DeclareProperty(user, iri(fmt.Sprintf("rel-%d", i%13)).Value)
	default: // 6
		if len(g.live) == 0 {
			return m.DeclareResource(user, iri(fmt.Sprintf("thing-%d", i%97)).Value)
		}
		// Owner retract: statement ids are "stmt-N" with N from the platform
		// counter, owners rotate with the insertion index, so the owner of
		// g.live[0] is recoverable only through the platform — ask it.
		id := g.live[0]
		g.live = g.live[1:]
		st, err := owner(m, id)
		if err != nil {
			return err
		}
		return m.Retract(st, id)
	}
}

// skip advances the generator past operation i without touching any
// platform: the dry-run used to fast-forward to the recovered prefix.
func (g *genState) skip(i int) {
	switch i % 7 {
	case 1, 2, 5:
		g.nextID++
		g.live = append(g.live, fmt.Sprintf("stmt-%d", g.nextID))
	case 6:
		if len(g.live) > 0 {
			g.live = g.live[1:]
		}
	}
}

// owner resolves a statement's owner through whichever platform backs the
// mutator (journal or bare).
func owner(m core.Mutator, id string) (string, error) {
	var p *kb.Platform
	switch v := m.(type) {
	case *core.Journal:
		p = v.Platform()
	case *kb.Platform:
		p = v
	default:
		return "", fmt.Errorf("walcheck: unknown mutator %T", m)
	}
	st, err := p.Statement(id)
	if err != nil {
		return "", err
	}
	return st.Owner, nil
}

// probeResults pins everything verify compares between the recovered
// platform and the reference rebuilt from the acknowledged prefix.
type probeResults struct {
	Users      []string
	ArenaLen   int
	DictLen    int
	ViewSizes  map[string]int
	Statements []string
	Events     []string
	SPARQL     map[string][]string
	Counts     map[string][]int
}

func probe(db *engine.DB, p *kb.Platform) (*probeResults, error) {
	res := &probeResults{
		Users:     p.Users(),
		ArenaLen:  p.Shared().Len(),
		DictLen:   p.Shared().DictLen(),
		ViewSizes: map[string]int{},
		SPARQL:    map[string][]string{},
		Counts:    map[string][]int{},
	}
	for _, st := range p.Explore(nil) {
		res.Statements = append(res.Statements,
			fmt.Sprintf("%s|%s|%s|%v", st.ID, st.Owner, st.Triple, st.Believers()))
	}
	r, err := db.Query("SELECT id, tag FROM walcheck_events")
	if err != nil {
		return nil, fmt.Errorf("walcheck: events probe: %w", err)
	}
	for _, row := range r.Rows {
		res.Events = append(res.Events, row[0].String()+"|"+row[1].String())
	}
	sort.Strings(res.Events)
	for _, u := range p.Users() {
		res.ViewSizes[u] = p.ViewSize(u)
		view, err := p.View(u)
		if err != nil {
			return nil, err
		}
		sr, err := sparql.Eval(view, `SELECT ?s ?p ?o WHERE { ?s ?p ?o } ORDER BY ?s ?p ?o`)
		if err != nil {
			return nil, fmt.Errorf("walcheck: SPARQL probe for %s: %w", u, err)
		}
		var rows []string
		for _, b := range sr.Bindings {
			rows = append(rows, fmt.Sprintf("%s|%s|%s", b["s"], b["p"], b["o"]))
		}
		res.SPARQL[u] = rows
		for _, pat := range []rdf.Pattern{
			{},
			{P: iri("rel-1")},
			{P: iri("rel-5")},
			{S: iri("thing-8")},
			{O: rdf.NewLiteral("v15")},
		} {
			res.Counts[u] = append(res.Counts[u], rdf.Count(view, pat))
		}
	}
	return res, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "walcheck:", err)
	os.Exit(1)
}

func ackedPath(dir string) string { return dir + "/acked" }

// writeAcked records that operation i was acknowledged. Fixed-width
// in-place write: a SIGKILL between operations can never leave a torn
// counter, and the OS page cache preserves it across the kill (this file
// tracks acknowledgement for the verifier, not durability — the WAL owns
// durability).
func writeAcked(f *os.File, i int) error {
	_, err := f.WriteAt([]byte(fmt.Sprintf("%019d\n", i)), 0)
	return err
}

func readAcked(dir string) (int, error) {
	raw, err := os.ReadFile(ackedPath(dir))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var k int
	if _, err := fmt.Sscanf(string(raw), "%d", &k); err != nil {
		return 0, fmt.Errorf("walcheck: unreadable acked file: %w", err)
	}
	return k, nil
}

func main() {
	var (
		mode         = flag.String("mode", "", "serve | verify")
		dir          = flag.String("dir", "walcheck-state", "journal directory")
		ops          = flag.Int("ops", 3000, "workload length (serve)")
		syncPolicy   = flag.String("sync", "interval", "WAL sync policy: always | interval | never")
		throttle     = flag.Duration("throttle", 0, "pause between operations (serve), so kills land mid-stream")
		compactEvery = flag.Int("compact-every", 0, "compact the journal every N operations (serve, 0 disables)")
		expectOps    = flag.Int("expect-ops", -1, "verify: require exactly this many operations recovered")
	)
	flag.Parse()

	switch *mode {
	case "serve":
		policy, err := wal.ParseSyncPolicy(*syncPolicy)
		if err != nil {
			fatal(err)
		}
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			fatal(err)
		}
		j, restored, err := core.OpenJournal(*dir, core.JournalOptions{Sync: policy}, bootstrap)
		if err != nil {
			fatal(err)
		}
		m := int(j.Status().LSN)
		if restored {
			fmt.Printf("walcheck: recovered %d operation(s) from %s\n", m, *dir)
		}
		g := &genState{}
		for i := 1; i <= m; i++ {
			g.skip(i)
		}
		acked, err := os.OpenFile(ackedPath(*dir), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			fatal(err)
		}
		for i := m + 1; i <= *ops; i++ {
			if err := g.apply(i, j, j.Exec); err != nil {
				fatal(fmt.Errorf("op %d: %w", i, err))
			}
			if err := writeAcked(acked, i); err != nil {
				fatal(err)
			}
			if *compactEvery > 0 && i%*compactEvery == 0 {
				if _, err := j.Compact(); err != nil {
					fatal(fmt.Errorf("compact at op %d: %w", i, err))
				}
			}
			if *throttle > 0 {
				time.Sleep(*throttle)
			}
		}
		if err := j.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("walcheck: served %d operation(s) into %s (sync=%s)\n", *ops-m, *dir, policy)

	case "verify":
		if _, err := os.Stat(core.ImagePath(*dir)); os.IsNotExist(err) {
			if _, aerr := os.Stat(ackedPath(*dir)); aerr == nil {
				fatal(fmt.Errorf("operations were acknowledged but image %s is gone", core.ImagePath(*dir)))
			}
			fmt.Println("walcheck: nothing to verify (no journal state)")
			return
		}
		k, err := readAcked(*dir)
		if err != nil {
			fatal(err)
		}
		j, _, err := core.OpenJournal(*dir, core.JournalOptions{}, bootstrap)
		if err != nil {
			fatal(fmt.Errorf("recovery failed: %w", err))
		}
		m := int(j.Status().LSN)
		if m < k {
			fatal(fmt.Errorf("recovery lost acknowledged operations: recovered %d, acknowledged %d", m, k))
		}
		if *expectOps >= 0 && m != *expectOps {
			fatal(fmt.Errorf("recovered %d operation(s), expected exactly %d", m, *expectOps))
		}

		// Reference: a fresh platform with the same bootstrap, fed the exact
		// operation prefix the recovered journal proves durable.
		rdb, rp, err := bootstrap()
		if err != nil {
			fatal(err)
		}
		g := &genState{}
		for i := 1; i <= m; i++ {
			if err := g.apply(i, rp, rdb.ExecScript); err != nil {
				fatal(fmt.Errorf("reference op %d: %w", i, err))
			}
		}
		got, err := probe(j.DB(), j.Platform())
		if err != nil {
			fatal(err)
		}
		want, err := probe(rdb, rp)
		if err != nil {
			fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			fatal(fmt.Errorf("recovered platform diverges from the acknowledged-prefix reference at %d operation(s):\n--- reference\n%+v\n--- recovered\n%+v", m, want, got))
		}
		fmt.Printf("walcheck: recovery verified (%d operation(s), %d ≥ %d acknowledged, %d statements, %d events)\n",
			m, m, k, len(got.Statements), len(got.Events))

	default:
		fatal(fmt.Errorf("unknown -mode %q (want serve or verify)", *mode))
	}
}
