package main

// Every check that starts the shipped crosse-server runs here: the test
// binary re-runs itself as the server (TestMain hands the child's
// arguments to main), so every child is the server users start, on a
// loopback port.
//
// The durability leg runs it with -wal. Users, inserts, imports and
// retracts go over /api/v1; the child is SIGKILLed mid-stream and
// restarted on the same directory, stopped with SIGTERM, and restored from
// a GET /api/v1/admin/snapshot backup, and each time the platform must
// answer exactly what was acknowledged.
//
// The federation leg runs it with -attach -partial-results over a second
// kind of child, a data node serving fdw-server's default registry. The
// node is SIGKILLed with scans in flight: the circuit must open, the query
// must still answer 200 naming the dead node and never come from the
// result cache, and once the node restarts on the same address the health
// poller must close the circuit and the answer must be whole again.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"maps"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"crosse/internal/dataset"
	"crosse/internal/engine"
	"crosse/internal/fdw"
)

// childEnv marks a process started by startServer: TestMain runs main
// instead of the tests. dataNodeEnv marks one started by startDataNode:
// TestMain hosts a data node on the address the variable holds.
const (
	childEnv    = "CROSSE_SERVER_TEST_CHILD"
	dataNodeEnv = "CROSSE_SERVER_TEST_DATA_NODE"
)

func TestMain(m *testing.M) {
	if addr := os.Getenv(dataNodeEnv); addr != "" {
		hostDataNode(addr)
	}
	if os.Getenv(childEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// registry builds the databank fdw-server serves with its default flags.
func registry() (*engine.DB, error) {
	db := engine.Open()
	cfg := dataset.DefaultConfig()
	cfg.Landfills, cfg.Seed = 500, 99
	return db, dataset.Populate(db, cfg)
}

// hostDataNode serves the registry on addr until the process is killed.
func hostDataNode(addr string) {
	db, err := registry()
	if err != nil {
		log.Fatal(err)
	}
	bound, err := fdw.NewServer(db.Catalog()).Listen(addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("data node on %s", bound)
	select {}
}

// server is one child process: a crosse-server or a data node.
type server struct {
	t      *testing.T
	cmd    *exec.Cmd
	base   string        // http://host:port, once a crosse-server serves
	exited chan struct{} // closed once the process is reaped
	err    error         // Wait's result, valid after exited
	mu     sync.Mutex
	log    bytes.Buffer // the child's stderr
	client *http.Client
}

var (
	servingRe  = regexp.MustCompile(`CroSSE platform on (\S+)`)
	dataNodeRe = regexp.MustCompile(`data node on (\S+)`)
)

// spawn starts a crosse-server child on a loopback port with the given
// extra flags.
func spawn(t *testing.T, args ...string) (*server, <-chan string) {
	return spawnChild(t, childEnv+"=1", servingRe, append([]string{"-addr", "127.0.0.1:0", "-scale", "20"}, args...)...)
}

// spawnChild starts the test binary with env added and args, and sends
// on the returned channel the address of the first stderr line ready
// matches. The child is killed and reaped when the test ends.
func spawnChild(t *testing.T, env string, ready *regexp.Regexp, args ...string) (*server, <-chan string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), env)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	s := &server{t: t, cmd: cmd, exited: make(chan struct{}),
		client: &http.Client{Timeout: 20 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			s.mu.Lock()
			s.log.WriteString(sc.Text() + "\n")
			s.mu.Unlock()
			if m := ready.FindStringSubmatch(sc.Text()); m != nil {
				addr <- m[1]
			}
		}
		s.err = cmd.Wait()
		close(s.exited)
	}()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-s.exited
	})
	return s, addr
}

// await waits for the address a child announces once it serves.
func (s *server) await(addr <-chan string) string {
	s.t.Helper()
	select {
	case a := <-addr:
		return a
	case <-s.exited:
		s.t.Fatalf("child exited before serving (%v):\n%s", s.err, s.stderr())
	case <-time.After(20 * time.Second):
		s.t.Fatalf("child did not serve within 20s:\n%s", s.stderr())
	}
	return ""
}

// startServer starts a crosse-server child and waits until it serves.
func startServer(t *testing.T, args ...string) *server {
	t.Helper()
	s, addr := spawn(t, args...)
	s.base = "http://" + s.await(addr)
	return s
}

// startDataNode starts a data node child on addr ("127.0.0.1:0" picks a
// port) and returns it with the address it listens on.
func startDataNode(t *testing.T, addr string) (*server, string) {
	t.Helper()
	s, bound := spawnChild(t, dataNodeEnv+"="+addr, dataNodeRe)
	return s, s.await(bound)
}

func (s *server) stderr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.String()
}

// kill SIGKILLs the child: no drain, no final compaction.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.exited
}

// terminate sends SIGTERM and requires a clean exit.
func (s *server) terminate() {
	s.t.Helper()
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		s.t.Fatalf("server ignored SIGTERM:\n%s", s.stderr())
	}
	if s.err != nil {
		s.t.Fatalf("SIGTERM exit: %v\n%s", s.err, s.stderr())
	}
}

// do sends one request and returns the status and the body. An error
// means no answer arrived.
func (s *server) do(method, path string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// call sends one request and decodes a 2xx JSON answer into out (when
// non-nil). A transport failure or a non-2xx status is an error.
func (s *server) call(method, path string, body, out any) error {
	status, raw, err := s.do(method, path, body)
	if err != nil {
		return err
	}
	if status/100 != 2 {
		return fmt.Errorf("%s %s: %d: %s", method, path, status, raw)
	}
	if out == nil {
		return nil
	}
	if b, ok := out.(*[]byte); ok {
		*b = raw
		return nil
	}
	return json.Unmarshal(raw, out)
}

func (s *server) must(method, path string, body, out any) {
	s.t.Helper()
	if err := s.call(method, path, body, out); err != nil {
		s.t.Fatalf("%v\n%s", err, s.stderr())
	}
}

// stmt is one statement as the model and GET /api/v1/statements see it.
type stmt struct {
	ID        string   `json:"id"`
	Subject   string   `json:"subject"`
	Property  string   `json:"property"`
	Object    string   `json:"object"`
	ObjectLit bool     `json:"object_literal"`
	Owner     string   `json:"owner"`
	Believers []string `json:"believers"`
}

// model is the platform state the acknowledged operations define.
type model struct {
	users []string
	stmts map[string]stmt
	next  int // statements inserted so far: the next id is "stmt-<next+1>"
}

func (m *model) clone() *model {
	c := &model{users: slices.Clone(m.users), stmts: maps.Clone(m.stmts), next: m.next}
	for id, st := range c.stmts {
		st.Believers = slices.Clone(st.Believers)
		c.stmts[id] = st
	}
	return c
}

// live lists the statement ids in insertion order.
func (m *model) live() []string {
	ids := slices.Collect(maps.Keys(m.stmts))
	sort.Slice(ids, func(i, j int) bool { return idNum(ids[i]) < idNum(ids[j]) })
	return ids
}

func idNum(id string) int {
	var n int
	fmt.Sscanf(id, "stmt-%d", &n)
	return n
}

// op is one mutation: the request, and its effect on the model once
// acknowledged.
type op struct {
	method, path string
	body         any
	apply        func(*model)
}

const prefix = "http://smartground.eu/onto#"

var users = []string{"ann", "bob"}

// nextOp derives operation i from the model: mostly inserts, with imports
// of the other user's statements and retracts by owners and by believers.
func nextOp(i int, m *model) op {
	user, other := users[i%2], users[(i+1)%2]
	live := m.live()
	switch {
	case i%5 == 2 && len(live) > 0:
		id := live[(i*7)%len(live)]
		return op{"POST", "/api/v1/statements/" + id + "/import", map[string]string{"user": other}, func(m *model) {
			st := m.stmts[id]
			if !slices.Contains(st.Believers, other) {
				st.Believers = append(slices.Clone(st.Believers), other)
				slices.Sort(st.Believers)
			}
			m.stmts[id] = st
		}}
	case i%5 == 4 && len(live) > 0:
		id := live[(i*3)%len(live)]
		st := m.stmts[id]
		who := st.Believers[i%len(st.Believers)]
		return op{"DELETE", "/api/v1/statements/" + id + "?user=" + who, nil, func(m *model) {
			if who == st.Owner {
				delete(m.stmts, id)
				return
			}
			st := m.stmts[id]
			st.Believers = slices.DeleteFunc(slices.Clone(st.Believers), func(u string) bool { return u == who })
			m.stmts[id] = st
		}}
	}
	subject := fmt.Sprintf("element_%03d", i%20)
	property, object, lit := "dangerLevel", []string{"high", "low", "medium"}[i%3], true
	if i%3 == 1 {
		property, object, lit = "isA", "HazardousWaste", false
	}
	return op{"POST", "/api/v1/statements", map[string]any{
		"user": user, "subject": subject, "property": property, "object": object, "object_literal": lit,
	}, func(m *model) {
		m.next++
		id := fmt.Sprintf("stmt-%d", m.next)
		obj := object
		if !lit {
			obj = prefix + object
		}
		m.stmts[id] = stmt{ID: id, Subject: prefix + subject, Property: prefix + property,
			Object: obj, ObjectLit: lit, Owner: user, Believers: []string{user}}
	}}
}

// errDiverged marks an acknowledged insert whose id the model did not
// predict.
var errDiverged = errors.New("server and model diverged")

// send runs op i against s and, when acknowledged, applies it to m. An
// error other than errDiverged means the op was not acknowledged.
func send(s *server, i int, m *model) (op, error) {
	o := nextOp(i, m)
	var out map[string]string
	if err := s.call(o.method, o.path, o.body, &out); err != nil {
		return o, err
	}
	o.apply(m)
	if id, ok := out["id"]; ok && id != fmt.Sprintf("stmt-%d", m.next) {
		return o, fmt.Errorf("%w: op %d: insert answered %s, model expects stmt-%d", errDiverged, i, id, m.next)
	}
	return o, nil
}

// state fetches the users and statements the server holds.
func (s *server) state() *model {
	s.t.Helper()
	var u struct{ Users []string }
	s.must("GET", "/api/v1/users?limit=1000", nil, &u)
	var l struct{ Statements []stmt }
	s.must("GET", "/api/v1/statements?limit=1000", nil, &l)
	m := &model{users: u.Users, stmts: map[string]stmt{}}
	for _, st := range l.Statements {
		slices.Sort(st.Believers)
		m.stmts[st.ID] = st
	}
	return m
}

func sameState(got, want *model) bool {
	return slices.Equal(got.users, want.users) && reflect.DeepEqual(got.stmts, want.stmts)
}

func describe(m *model) string {
	var b strings.Builder
	fmt.Fprintf(&b, "users %v\n", m.users)
	for _, id := range m.live() {
		fmt.Fprintf(&b, "  %+v\n", m.stmts[id])
	}
	return b.String()
}

// probes is what a restored backup must answer as the original did: the
// users, the statements, and per user the SESQL and SPARQL probes.
func (s *server) probes() map[string]string {
	s.t.Helper()
	out := map[string]string{}
	var raw []byte
	s.must("GET", "/api/v1/users?limit=1000", nil, &raw)
	out["users"] = string(raw)
	s.must("GET", "/api/v1/statements?limit=1000", nil, &raw)
	out["statements"] = string(raw)
	for _, u := range users {
		for name, q := range map[string]string{
			"schema_extension":      "SELECT elem_name, landfill_name FROM elem_contained ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)",
			"bool_schema_extension": "SELECT elem_name FROM elem_contained ENRICH BOOLSCHEMAEXTENSION(elem_name, isA, HazardousWaste)",
			"plain_sql":             "SELECT name, city FROM landfill",
		} {
			var r struct {
				Columns []string
				Rows    [][]string
			}
			s.must("POST", "/api/v1/query", map[string]string{"user": u, "sesql": q}, &r)
			lines := []string{strings.Join(r.Columns, "|")}
			for _, row := range r.Rows {
				lines = append(lines, strings.Join(row, "|"))
			}
			sort.Strings(lines[1:])
			out[u+" sesql "+name] = strings.Join(lines, "\n")
		}
		var r struct{ Bindings []map[string]string }
		s.must("POST", "/api/v1/sparql", map[string]string{"user": u, "query": `SELECT ?s ?p ?o WHERE { ?s ?p ?o } ORDER BY ?s ?p ?o`}, &r)
		raw, _ := json.Marshal(r.Bindings)
		out[u+" sparql"] = string(raw)
	}
	return out
}

func TestServerCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s := startServer(t, "-wal", dir)
	m := &model{stmts: map[string]stmt{}}
	for _, u := range users {
		s.must("POST", "/api/v1/users", map[string]string{"name": u}, nil)
		m.users = append(m.users, u)
	}

	// A stream of mutations, one in flight at a time, SIGKILLed once
	// enough are acknowledged. The in-flight one may or may not survive.
	var acked atomic.Int32
	type result struct {
		inflight op
		err      error
	}
	done := make(chan result, 1)
	go func() {
		for i := 0; ; i++ {
			o, err := send(s, i, m)
			if err != nil {
				done <- result{o, err}
				return
			}
			acked.Add(1)
		}
	}()
	for acked.Load() < 150 {
		select {
		case r := <-done:
			t.Fatalf("stream failed before the kill: %v\n%s", r.err, s.stderr())
		case <-time.After(time.Millisecond):
		}
	}
	s.kill()
	r := <-done
	if errors.Is(r.err, errDiverged) {
		t.Fatal(r.err)
	}
	withInflight := m.clone()
	r.inflight.apply(withInflight)
	n := int(acked.Load())
	t.Logf("killed after %d acknowledged operations; in flight: %v", n, r.err)

	s = startServer(t, "-wal", dir)
	switch got := s.state(); {
	case sameState(got, m):
	case sameState(got, withInflight):
		m = withInflight
		n++
	default:
		t.Fatalf("after SIGKILL at %d acknowledged operations the restarted server holds\n%s\nwant (without, then with the in-flight operation)\n%s\n%s",
			n, describe(got), describe(m), describe(withInflight))
	}

	// More acknowledged operations, then a clean stop: SIGTERM exits 0
	// and the next start holds exactly the same state.
	for i := n; i < n+40; i++ {
		if _, err := send(s, i, m); err != nil {
			t.Fatal(err)
		}
	}
	s.terminate()
	s = startServer(t, "-wal", dir)
	if got := s.state(); !sameState(got, m) {
		t.Fatalf("after SIGTERM the restarted server holds\n%s\nwant\n%s", describe(got), describe(m))
	}

	// A backup restored alone as platform.img answers the same probes.
	want := s.probes()
	var backup []byte
	s.must("GET", "/api/v1/admin/snapshot", nil, &backup)
	s.terminate()
	restored := t.TempDir()
	if err := os.WriteFile(filepath.Join(restored, "platform.img"), backup, 0o644); err != nil {
		t.Fatal(err)
	}
	s = startServer(t, "-wal", restored)
	if got := s.probes(); !reflect.DeepEqual(got, want) {
		for k := range want {
			if got[k] != want[k] {
				t.Errorf("restored backup: probe %q\n got %s\nwant %s", k, got[k], want[k])
			}
		}
		t.FailNow()
	}
	s.terminate()

	// One flipped byte: the child refuses the image and never serves.
	corrupt := t.TempDir()
	backup[len(backup)/2] ^= 0xff
	if err := os.WriteFile(filepath.Join(corrupt, "platform.img"), backup, 0o644); err != nil {
		t.Fatal(err)
	}
	s, _ = spawn(t, "-wal", corrupt)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		t.Fatalf("server on a corrupt backup did not exit:\n%s", s.stderr())
	}
	if s.err == nil || servingRe.MatchString(s.stderr()) {
		t.Fatalf("server on a corrupt backup: exit %v, log:\n%s", s.err, s.stderr())
	}
}

// Invalid flags fail in run before anything is bootstrapped, opened or
// bound: the address is held by the test, so an attempt to bind it would
// fail with a different error, and the journal directory is never made.
func TestRunRejectsBadFlags(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dir := filepath.Join(t.TempDir(), "journal")
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-wal", dir, "-scale", "0"}, "-scale must be at least 1"},
		{[]string{"-wal", dir, "-scale", "-3"}, "-scale must be at least 1"},
		{[]string{"-compact-interval", "1s"}, "-compact-interval requires -wal"},
		{[]string{"-wal", dir, "-wal-sync", "sometimes"}, `"sometimes"`},
		{[]string{"-wal", dir, "-mapping", filepath.Join(t.TempDir(), "missing.xml")}, "open mapping"},
	} {
		err := run(append([]string{"-addr", ln.Addr().String()}, c.args...), nil)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run %v: err = %v, want it to mention %s", c.args, err, c.want)
		}
	}
	if _, err := os.Stat(dir); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("a rejected run touched the journal directory: %v", err)
	}
}

// fedAnswer is a query answer as the federation leg reads it.
type fedAnswer struct {
	Rows            [][]string `json:"rows"`
	DegradedSources []string   `json:"degraded_sources"`
	Stats           struct {
		CacheHit       bool     `json:"cache_hit"`
		SkippedSources []string `json:"skipped_sources"`
	} `json:"stats"`
}

// awaitSource polls GET /api/v1/admin/sources until the one attached
// source is in state.
func (s *server) awaitSource(state string) {
	s.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		var out struct {
			Sources []struct{ Name, State string }
		}
		s.must("GET", "/api/v1/admin/sources", nil, &out)
		if len(out.Sources) == 1 && out.Sources[0].State == state {
			return
		}
		if time.Now().After(deadline) {
			s.t.Fatalf("sources %+v after 15s, want one %s\n%s", out.Sources, state, s.stderr())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestServerSurvivesDataNodeDeath(t *testing.T) {
	db, err := registry()
	if err != nil {
		t.Fatal(err)
	}
	n, err := dataset.CountRows(db, "elem_contained")
	if err != nil {
		t.Fatal(err)
	}
	full := [][]string{{fmt.Sprint(n)}}

	node, addr := startDataNode(t, "127.0.0.1:0")
	s := startServer(t, "-attach", addr, "-partial-results", "-source-timeout", "2s", "-health-interval", "500ms")
	s.must("POST", "/api/v1/users", map[string]string{"name": "ops"}, nil)
	const count = "SELECT COUNT(*) FROM remote_elem_contained"
	query := func(sesql string) fedAnswer {
		t.Helper()
		var r fedAnswer
		s.must("POST", "/api/v1/query", map[string]any{"user": "ops", "sesql": sesql, "stats": true}, &r)
		return r
	}
	whole := func(when string, r fedAnswer) {
		t.Helper()
		if !reflect.DeepEqual(r.Rows, full) || r.DegradedSources != nil || r.Stats.SkippedSources != nil {
			t.Fatalf("%s: rows %v, degraded_sources %v, skipped_sources %v; want %v from the whole registry",
				when, r.Rows, r.DegradedSources, r.Stats.SkippedSources, full)
		}
	}
	var baseline fedAnswer
	s.must("POST", "/api/v1/query", map[string]string{"user": "ops", "sesql": count}, &baseline)
	whole("healthy", baseline)

	// Scans in flight when the node dies, each text its own so that none
	// is answered from the result cache. Whatever the moment of the kill,
	// an answer is the whole count, the degraded answer naming the node,
	// or a 503 envelope: never a count cut short, and never a 4xx.
	stop := make(chan struct{})
	scans := make(chan error, 1)
	var answered atomic.Int32
	seen := map[string]int{}
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				scans <- nil
				return
			default:
			}
			sesql := fmt.Sprintf("%s WHERE amount > %d", count, -1-i)
			status, raw, err := s.do("POST", "/api/v1/query", map[string]any{"user": "ops", "sesql": sesql})
			var kind string
			if err == nil {
				kind, err = checkScan(status, raw, full, addr)
			}
			if err != nil {
				scans <- fmt.Errorf("scan %d: %w", i, err)
				return
			}
			seen[kind]++
			answered.Add(1)
		}
	}()
	for answered.Load() < 2 {
		select {
		case err := <-scans:
			t.Fatalf("before the kill: %v\n%s", err, s.stderr())
		case <-time.After(time.Millisecond):
		}
	}
	node.kill()
	close(stop)
	if err := <-scans; err != nil {
		t.Fatalf("%v\n%s", err, s.stderr())
	}
	t.Logf("answers to the scans around the kill: %v", seen)

	// The circuit opens; the node is dark, and the same query still
	// answers 200: nothing counted, the node named in the result and in
	// the stats, and each time evaluated afresh, since a degraded answer
	// is never cached.
	s.awaitSource("open")
	var h struct{ Status string }
	s.must("GET", "/healthz", nil, &h)
	if h.Status != "degraded" {
		t.Errorf("healthz status %q with the circuit open, want degraded", h.Status)
	}
	for i := 1; i <= 2; i++ {
		r := query(count)
		if !reflect.DeepEqual(r.Rows, [][]string{{"0"}}) ||
			!slices.Equal(r.DegradedSources, []string{addr}) || !slices.Equal(r.Stats.SkippedSources, []string{addr}) {
			t.Fatalf("degraded query %d: rows %v, degraded_sources %v, skipped_sources %v; want [[0]] with %s skipped",
				i, r.Rows, r.DegradedSources, r.Stats.SkippedSources, addr)
		}
		if r.Stats.CacheHit {
			t.Fatalf("degraded query %d was answered from the result cache", i)
		}
	}

	// The node restarts on the same address: the health poller's
	// half-open probe closes the circuit with no request from the test,
	// and the answer is whole again.
	startDataNode(t, addr)
	s.awaitSource("closed")
	r := query(count)
	whole("recovered", r)
	if r.Stats.CacheHit {
		t.Error("the first answer after recovery came from the result cache")
	}
	s.terminate()
}

// checkScan judges one answer to a query in flight around the kill and
// names its kind.
func checkScan(status int, raw []byte, full [][]string, addr string) (string, error) {
	if status != http.StatusOK {
		var env struct {
			Error struct{ Code, Message string }
		}
		if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code == "" {
			return "", fmt.Errorf("status %d without an error envelope: %s", status, raw)
		}
		if status < 500 {
			// A dead source is never the client's fault: it is skipped
			// (ErrSourceDown) or, after some of its rows, a 503.
			return "", fmt.Errorf("status %d %s: %s", status, env.Error.Code, env.Error.Message)
		}
		return fmt.Sprintf("%d %s: %s", status, env.Error.Code, env.Error.Message), nil
	}
	var r fedAnswer
	if err := json.Unmarshal(raw, &r); err != nil {
		return "", err
	}
	switch {
	case r.DegradedSources == nil && reflect.DeepEqual(r.Rows, full):
		return "whole", nil
	case slices.Equal(r.DegradedSources, []string{addr}) && reflect.DeepEqual(r.Rows, [][]string{{"0"}}):
		return "degraded", nil
	}
	return "", fmt.Errorf("200 with rows %v, degraded_sources %v; want %v whole or [[0]] with %s skipped",
		r.Rows, r.DegradedSources, full, addr)
}

// The serving-tier flags reach the handler: -max-inflight and
// -inflight-queue shape the admission section of /api/v1/metrics, and the
// default -cache-entries installs the result cache.
func TestRunFlagsReachServingTier(t *testing.T) {
	s := startServer(t, "-max-inflight", "1", "-inflight-queue", "0")
	var m struct {
		Admission *struct {
			MaxInflight int `json:"max_inflight"`
			QueueDepth  int `json:"queue_depth"`
		} `json:"admission"`
		ResultCache map[string]any `json:"result_cache"`
	}
	s.must("GET", "/api/v1/metrics", nil, &m)
	if m.Admission == nil || m.Admission.MaxInflight != 1 || m.Admission.QueueDepth != 0 {
		t.Errorf("admission = %+v, want max_inflight 1, queue_depth 0", m.Admission)
	}
	if m.ResultCache == nil {
		t.Error("metrics carry no result_cache section")
	}
	s.terminate()
}
