package core

// The crash-recovery proof for the write-ahead log, in two halves that
// share one workload (buildWorkload) and one probe (probeCrash).
//
// In process, TestCrashRecoveryProperty crashes randomized workloads at
// arbitrary write/sync boundaries (clean error, short write, hard crash —
// over a power-loss-modeling in-memory filesystem). Across real processes,
// TestJournalCrashRecovery re-runs the test binary as a child that applies
// the workload through OpenJournal on disk and SIGKILLs it mid-workload.
// Either way the recovered platform must equal a reference platform built
// by re-applying exactly the operations the journal acknowledged (plus, at
// most, the single in-flight operation whose record reached the log).

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"crosse/internal/engine"
	"crosse/internal/kb"
	"crosse/internal/rdf"
	"crosse/internal/sparql"
	"crosse/internal/sqlexec"
	"crosse/internal/wal"
)

func crashBootstrap() (*engine.DB, *kb.Platform, error) {
	db := engine.Open()
	if _, err := db.Exec("CREATE TABLE crash_events (id INT PRIMARY KEY, tag TEXT)"); err != nil {
		return nil, nil, err
	}
	p := kb.NewPlatform()
	for _, u := range []string{"ada", "ben"} {
		if err := p.RegisterUser(u); err != nil {
			return nil, nil, err
		}
	}
	return db, p, nil
}

// crashOp is one workload step with fixed, pre-computed arguments, so the
// identical sequence can drive a journal and, later, the bare reference
// platform. compact marks journal-only maintenance steps the reference
// skips.
type crashOp struct {
	name    string
	compact bool
	run     func(m Mutator, exec func(string) (*sqlexec.Result, error)) error
}

func crashIRI(s string) rdf.Term { return rdf.NewIRI("http://crash.example/" + s) }

// buildWorkload precomputes a deterministic operation sequence. Statement
// ids are tracked by construction ("stmt-N" from the platform counter),
// so imports and retracts reference ids that exist at that point.
func buildWorkload(n int) []crashOp {
	users := []string{"ada", "ben"}
	var ops []crashOp
	var live []string
	nextID := 0
	for i := 1; i <= n; i++ {
		i := i
		user := users[i%2]
		other := users[(i+1)%2]
		switch i % 9 {
		case 1, 4, 7:
			nextID++
			id := fmt.Sprintf("stmt-%d", nextID)
			live = append(live, id)
			t := rdf.Triple{S: crashIRI(fmt.Sprintf("s%d", i%17)), P: crashIRI(fmt.Sprintf("p%d", i%5)), O: rdf.NewLiteral(fmt.Sprintf("o%d", i))}
			var opts []kb.InsertOption
			if i%6 == 1 {
				opts = append(opts, kb.WithReference(kb.Reference{Title: fmt.Sprintf("t%d", i)}))
			}
			ops = append(ops, crashOp{name: fmt.Sprintf("insert %s", id), run: func(m Mutator, _ func(string) (*sqlexec.Result, error)) error {
				got, err := m.Insert(user, t, opts...)
				if err != nil {
					return err
				}
				if got != id {
					return fmt.Errorf("insert produced %s, workload expected %s", got, id)
				}
				return nil
			}})
		case 2:
			// Every other slot declares vocabulary instead: a resource for
			// one user, then a property for the other, so the log carries
			// declarations of both kinds and owners.
			switch i % 36 {
			case 11:
				ops = append(ops, crashOp{name: "declare resource", run: func(m Mutator, _ func(string) (*sqlexec.Result, error)) error {
					return m.DeclareResource(user, crashIRI(fmt.Sprintf("r%d", i)).Value)
				}})
			case 29:
				ops = append(ops, crashOp{name: "declare property", run: func(m Mutator, _ func(string) (*sqlexec.Result, error)) error {
					return m.DeclareProperty(other, crashIRI(fmt.Sprintf("dp%d", i)).Value)
				}})
			default:
				ops = append(ops, crashOp{name: "sql", run: func(_ Mutator, exec func(string) (*sqlexec.Result, error)) error {
					_, err := exec(fmt.Sprintf("INSERT INTO crash_events VALUES (%d, 'e%d')", i, i))
					return err
				}})
			}
		case 3:
			// live is never empty here: stmt-1 is inserted at i=1 and each
			// block of nine inserts three statements and retracts one.
			id := live[i%len(live)]
			ops = append(ops, crashOp{name: "import " + id, run: func(m Mutator, _ func(string) (*sqlexec.Result, error)) error {
				return m.Import(other, id)
			}})
		case 5:
			// Only p0 and p1: statements over p2..p4 are shared by the
			// single imports above alone, so they keep adding beliefs.
			p := crashIRI(fmt.Sprintf("p%d", i%2))
			ops = append(ops, crashOp{name: "importfrom", run: func(m Mutator, _ func(string) (*sqlexec.Result, error)) error {
				_, err := m.ImportFrom(other, user, func(st *kb.Statement) bool { return st.Triple.P == p })
				return err
			}})
		case 6:
			ops = append(ops, crashOp{name: "query", run: func(m Mutator, _ func(string) (*sqlexec.Result, error)) error {
				return m.RegisterQuery(user, fmt.Sprintf("q%d", i),
					fmt.Sprintf("SELECT ?s WHERE { ?s <http://crash.example/p%d> ?o }", i%5))
			}})
		case 8:
			id := live[0]
			live = live[1:]
			// The owner is fixed at insert time by the same i%2 rotation.
			ops = append(ops, crashOp{name: "retract " + id, run: func(m Mutator, _ func(string) (*sqlexec.Result, error)) error {
				st, ok := m.(interface {
					Platform() *kb.Platform
				})
				var p *kb.Platform
				if ok {
					p = st.Platform()
				} else {
					p = m.(*kb.Platform)
				}
				s, err := p.Statement(id)
				if err != nil {
					return err
				}
				return m.Retract(s.Owner, id)
			}})
		default: // 0
			ops = append(ops, crashOp{name: "compact", compact: true, run: nil})
		}
	}
	return ops
}

// crashProbe pins the state both platforms must agree on: per user, the
// whole view as SPARQL sees it and a pattern-count battery over the
// workload's vocabulary, besides the statements, events, queries and
// declared vocabulary.
type crashProbe struct {
	Users      []string
	ArenaLen   int
	DictLen    int
	ViewSizes  map[string]int
	Statements []string
	Events     []string
	Queries    map[string][]string
	Declared   map[string][]string
	SPARQL     map[string][]string
	Counts     map[string][]int
}

var crashPatterns = []rdf.Pattern{
	{},
	{P: crashIRI("p1")},
	{P: crashIRI("p3")},
	{S: crashIRI("s8")},
	{O: rdf.NewLiteral("o15")},
	{S: crashIRI("s3"), P: crashIRI("p3")},
}

func probeCrash(db *engine.DB, p *kb.Platform) (*crashProbe, error) {
	res := &crashProbe{ViewSizes: map[string]int{}, Queries: map[string][]string{}, Users: p.Users(),
		Declared: map[string][]string{}, SPARQL: map[string][]string{}, Counts: map[string][]int{}}
	res.ArenaLen = p.Shared().Len()
	res.DictLen = p.Shared().DictLen()
	for _, st := range p.Explore(nil) {
		res.Statements = append(res.Statements, fmt.Sprintf("%s|%s|%s|%v", st.ID, st.Owner, st.Triple, st.Believers()))
	}
	r, err := db.Query("SELECT id, tag FROM crash_events")
	if err != nil {
		return nil, err
	}
	for _, row := range r.Rows {
		res.Events = append(res.Events, row[0].String()+"|"+row[1].String())
	}
	sort.Strings(res.Events)
	for _, kind := range []kb.DeclKind{kb.DeclResource, kb.DeclProperty} {
		for _, d := range p.Declarations(kind) {
			res.Declared[d.Owner] = append(res.Declared[d.Owner], kind.String()+"|"+d.Name)
		}
	}
	for _, u := range p.Users() {
		res.ViewSizes[u] = p.ViewSize(u)
		for _, q := range p.Queries(u) {
			res.Queries[u] = append(res.Queries[u], q.Name+"|"+q.Text)
		}
		sort.Strings(res.Queries[u])
		view, err := p.View(u)
		if err != nil {
			return nil, err
		}
		sr, err := sparql.Eval(view, `SELECT ?s ?p ?o WHERE { ?s ?p ?o } ORDER BY ?s ?p ?o`)
		if err != nil {
			return nil, err
		}
		for _, b := range sr.Bindings {
			res.SPARQL[u] = append(res.SPARQL[u], fmt.Sprintf("%s|%s|%s", b["s"], b["p"], b["o"]))
		}
		for _, pat := range crashPatterns {
			res.Counts[u] = append(res.Counts[u], rdf.Count(view, pat))
		}
	}
	return res, nil
}

// TestCrashRecoveryProperty is the acceptance-criteria property: for
// randomized workloads crashed at arbitrary write/sync boundaries,
// recovery restores exactly the acknowledged prefix — no acknowledged
// mutation lost, at most the single in-flight record surfaced (and then
// only when the page cache tore, never under a strict power cut).
func TestCrashRecoveryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	kinds := []int{wal.FaultError, wal.FaultShortWrite, wal.FaultCrash}
	for trial := 0; trial < 40; trial++ {
		kind := kinds[trial%len(kinds)]
		strict := trial%2 == 0
		runCrashTrial(t, rng, trial, kind, strict)
	}
}

func runCrashTrial(t *testing.T, rng *rand.Rand, trial, kind int, strict bool) {
	mem := wal.NewMemFS()
	ffs := wal.NewFaultFS(mem)
	j, restored, err := OpenJournal("j", JournalOptions{FS: ffs, Sync: wal.SyncAlways}, crashBootstrap)
	if err != nil || restored {
		t.Fatalf("trial %d: bootstrap: restored=%v err=%v", trial, restored, err)
	}

	// The 40-op workload performs ~90 writes/syncs, so most trials fault
	// mid-workload and a few run fault-free (exercising the no-fault path).
	ops := buildWorkload(40)
	ffs.FaultAt(1+rng.Intn(110), kind)

	acked := 0 // ops acknowledged
	var ackedLSN uint64
	for _, op := range ops {
		var err error
		if op.compact {
			_, err = j.Compact()
		} else {
			err = op.run(j, j.Exec)
		}
		if err != nil {
			if !errors.Is(err, wal.ErrInjected) && !errors.Is(err, wal.ErrCrashed) {
				t.Fatalf("trial %d: op %q failed for a non-injected reason: %v", trial, op.name, err)
			}
			break
		}
		acked++
		ackedLSN = j.Status().LSN
	}

	// The "machine" dies: un-synced state is lost — all of it under a
	// strict power cut, a random prefix survives when the page cache tore.
	if strict {
		mem.Crash()
	} else {
		mem.CrashKeeping(rng)
	}

	j2, restored, err := OpenJournal("j", JournalOptions{FS: mem, Sync: wal.SyncAlways}, crashBootstrap)
	if err != nil {
		t.Fatalf("trial %d (kind %d, acked %d): recovery failed: %v", trial, kind, acked, err)
	}
	if !restored {
		t.Fatalf("trial %d: recovery bootstrapped instead of restoring", trial)
	}
	m := j2.Status().LSN
	if m < ackedLSN {
		t.Fatalf("trial %d: lost acknowledged records: recovered LSN %d < acknowledged %d", trial, m, ackedLSN)
	}
	if m > ackedLSN+1 {
		t.Fatalf("trial %d: recovered LSN %d surfaced more than the in-flight record past %d", trial, m, ackedLSN)
	}
	if strict && m != ackedLSN {
		t.Fatalf("trial %d: strict power cut surfaced an unacknowledged record: LSN %d vs acknowledged %d", trial, m, ackedLSN)
	}

	// Reference: the acknowledged prefix (plus the in-flight op if its
	// record survived the torn page cache) applied to a bare platform.
	rdb, rp, err := crashBootstrap()
	if err != nil {
		t.Fatal(err)
	}
	apply := acked
	if m > ackedLSN && apply < len(ops) {
		apply++
	}
	for _, op := range ops[:apply] {
		if op.compact {
			continue
		}
		if err := op.run(rp, rdb.ExecScript); err != nil {
			t.Fatalf("trial %d: reference op %q: %v", trial, op.name, err)
		}
	}
	got, err := probeCrash(j2.DB(), j2.Platform())
	if err != nil {
		t.Fatalf("trial %d: probe recovered: %v", trial, err)
	}
	want, err := probeCrash(rdb, rp)
	if err != nil {
		t.Fatalf("trial %d: probe reference: %v", trial, err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("trial %d (kind %d, strict %v): recovered state diverges after %d acked ops (LSN %d)\n--- reference\n%+v\n--- recovered\n%+v",
			trial, kind, strict, acked, m, want, got)
	}
	if err := j2.Close(); err != nil {
		t.Fatalf("trial %d: close recovered journal: %v", trial, err)
	}
}

// journalChildEnv marks a child started by TestJournalCrashRecovery:
// TestMain runs the workload instead of the tests.
const journalChildEnv = "CROSSE_JOURNAL_TEST_CHILD"

// crashLegOps is the length of the workload the child applies.
const crashLegOps = 4000

func TestMain(m *testing.M) {
	if os.Getenv(journalChildEnv) != "" {
		if err := journalChild(os.Args[1], os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// journalChild opens the journal in dir on the real filesystem, skips the
// workload's first from operations (the journal holds them) and applies
// the rest. It prints "k lsn" once it holds k operations at that LSN:
// first on opening, then as each operation is acknowledged.
func journalChild(dir, from string) error {
	k, err := strconv.Atoi(from)
	if err != nil {
		return err
	}
	j, _, err := OpenJournal(dir, JournalOptions{Sync: wal.SyncInterval}, crashBootstrap)
	if err != nil {
		return err
	}
	fmt.Printf("%d %d\n", k, j.Status().LSN)
	ops := buildWorkload(crashLegOps)
	for ; k < len(ops); k++ {
		if ops[k].compact {
			_, err = j.Compact()
		} else {
			err = ops[k].run(j, j.Exec)
		}
		if err != nil {
			return fmt.Errorf("op %d (%s): %w", k+1, ops[k].name, err)
		}
		fmt.Printf("%d %d\n", k+1, j.Status().LSN)
	}
	return j.Close()
}

// runJournalChild runs a child from operation from and, when target > 0,
// SIGKILLs it once it has acknowledged operation target. It returns the
// last operation the child acknowledged and the LSN it held then.
func runJournalChild(t *testing.T, dir string, from, target int) (acked int, lsn uint64) {
	t.Helper()
	cmd := exec.Command(os.Args[0], dir, strconv.Itoa(from))
	cmd.Env = append(os.Environ(), journalChildEnv+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	killed := false
	for sc := bufio.NewScanner(out); sc.Scan(); {
		if _, err := fmt.Sscanf(sc.Text(), "%d %d", &acked, &lsn); err != nil {
			t.Fatalf("child wrote %q: %v", sc.Text(), err)
		}
		if target > 0 && acked >= target && !killed {
			cmd.Process.Kill()
			killed = true
		}
	}
	err = cmd.Wait()
	switch ws, _ := cmd.ProcessState.Sys().(syscall.WaitStatus); {
	case killed && !(ws.Signaled() && ws.Signal() == syscall.SIGKILL):
		t.Fatalf("child ended (%v) before the kill after operation %d:\n%s", err, target, stderr.String())
	case target > 0 && !killed:
		t.Fatalf("child finished (%v) before operation %d:\n%s", err, target, stderr.String())
	case target == 0 && err != nil:
		t.Fatalf("child failed: %v\n%s", err, stderr.String())
	}
	return acked, lsn
}

// TestJournalCrashRecovery SIGKILLs a child applying the workload through
// the journal on disk (SyncInterval, compactions) at five distinct
// acknowledged counts, each restart resuming the same directory, then lets
// a last child finish. After every child the parent recovers the journal:
// it must hold every acknowledged operation, at most the one in flight
// besides, and probe equal to a reference replay of that prefix.
func TestJournalCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	ops := buildWorkload(crashLegOps)
	rdb, rp, err := crashBootstrap()
	if err != nil {
		t.Fatal(err)
	}
	held := 0 // operations the journal holds, and the reference replayed
	var kills []int
	var want *crashProbe
	for _, target := range []int{500, 1200, 1900, 2600, 3300, 0} {
		acked, ackedLSN := runJournalChild(t, dir, held, target)
		j, restored, err := OpenJournal(dir, JournalOptions{}, crashBootstrap)
		if err != nil || !restored {
			t.Fatalf("recovery after %d acknowledged operations: restored=%v err=%v", acked, restored, err)
		}
		lsn := j.Status().LSN
		switch {
		case lsn < ackedLSN:
			t.Fatalf("recovery lost acknowledged records: LSN %d < acknowledged %d (operation %d)", lsn, ackedLSN, acked)
		case lsn > ackedLSN+1:
			t.Fatalf("recovery surfaced more than the in-flight record: LSN %d past acknowledged %d", lsn, ackedLSN)
		}
		prefix := acked
		if lsn > ackedLSN { // the in-flight operation's record reached the log
			prefix++
		}
		for _, op := range ops[held:prefix] {
			if op.compact {
				continue
			}
			if err := op.run(rp, rdb.ExecScript); err != nil {
				t.Fatalf("reference op %q: %v", op.name, err)
			}
		}
		held = prefix
		got, err := probeCrash(j.DB(), j.Platform())
		if err != nil {
			t.Fatal(err)
		}
		want, err = probeCrash(rdb, rp)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("recovered journal diverges from the reference at %d operations (LSN %d)\n--- reference\n%+v\n--- recovered\n%+v",
				held, lsn, want, got)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if target > 0 {
			if len(kills) > 0 && acked <= kills[len(kills)-1] {
				t.Fatalf("kills at acknowledged operations %v, %d are not distinct", kills, acked)
			}
			kills = append(kills, acked)
		}
	}
	if held != len(ops) {
		t.Fatalf("the finished workload recovered %d of %d operations", held, len(ops))
	}
	for _, u := range want.Users {
		if len(want.Declared[u]) == 0 {
			t.Fatalf("user %s declared no vocabulary: the workload no longer journals declarations", u)
		}
	}
	t.Logf("SIGKILLed at acknowledged operations %v of %d", kills, len(ops))
}

// Mid-log corruption (a flipped byte with intact records after it) must
// refuse recovery rather than silently skip records.
func TestJournalRejectsMidLogCorruption(t *testing.T) {
	mem := wal.NewMemFS()
	j, _, err := OpenJournal("j", JournalOptions{FS: mem, Sync: wal.SyncAlways}, crashBootstrap)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range buildWorkload(20) {
		if op.compact {
			continue
		}
		if err := op.run(j, j.Exec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	raw, err := mem.ReadFile(LogPath("j"))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20
	f, err := mem.OpenAppend(LogPath("j"), 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(raw)
	f.Sync()
	mem.SyncDir("j")

	_, _, err = OpenJournal("j", JournalOptions{FS: mem}, crashBootstrap)
	if err == nil || !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("mid-log corruption recovered: %v", err)
	}
}

// A log whose anchoring image is missing must be refused, not guessed at.
func TestJournalRefusesOrphanLog(t *testing.T) {
	mem := wal.NewMemFS()
	j, _, err := OpenJournal("j", JournalOptions{FS: mem, Sync: wal.SyncAlways}, crashBootstrap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Insert("ada", rdf.Triple{S: crashIRI("s"), P: crashIRI("p"), O: rdf.NewLiteral("o")}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := mem.Remove(ImagePath("j")); err != nil {
		t.Fatal(err)
	}
	mem.SyncDir("j")
	if _, _, err := OpenJournal("j", JournalOptions{FS: mem}, crashBootstrap); err == nil {
		t.Fatal("orphan log opened")
	}
}
