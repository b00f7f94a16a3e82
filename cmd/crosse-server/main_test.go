package main

// The server leg of the durability proof: the test binary re-runs itself
// as crosse-server (TestMain hands the child's arguments to main), so
// every child is the server users start, on a loopback port with -wal.
// Users, inserts, imports and retracts go over /api/v1; the child is
// SIGKILLed mid-stream and restarted on the same directory, stopped with
// SIGTERM, and restored from a GET /api/v1/admin/snapshot backup, and
// each time the platform must answer exactly what was acknowledged.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
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
)

// childEnv marks a process started by startServer: TestMain runs main
// instead of the tests.
const childEnv = "CROSSE_SERVER_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// server is one crosse-server child process.
type server struct {
	t      *testing.T
	cmd    *exec.Cmd
	base   string        // http://host:port, once it serves
	exited chan struct{} // closed once the process is reaped
	err    error         // Wait's result, valid after exited
	mu     sync.Mutex
	log    bytes.Buffer // the child's stderr
	client *http.Client
}

var servingRe = regexp.MustCompile(`CroSSE platform on (\S+)`)

// spawn starts a child on a loopback port with the given extra flags. The
// child is killed and reaped when the test ends.
func spawn(t *testing.T, args ...string) (*server, <-chan string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-addr", "127.0.0.1:0", "-scale", "20"}, args...)...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
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
			if m := servingRe.FindStringSubmatch(sc.Text()); m != nil {
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

// startServer starts a child and waits until it serves.
func startServer(t *testing.T, args ...string) *server {
	t.Helper()
	s, addr := spawn(t, args...)
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.exited:
		t.Fatalf("server exited before serving (%v):\n%s", s.err, s.stderr())
	case <-time.After(20 * time.Second):
		t.Fatalf("server did not serve within 20s:\n%s", s.stderr())
	}
	return s
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

// call sends one request and decodes a 2xx JSON answer into out (when
// non-nil). A transport failure or a non-2xx status is an error.
func (s *server) call(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, raw)
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
