package rest

// Contract tests for the v1 surface: the uniform error envelope, typed
// status mapping (a 429 burst against one execution slot among them),
// pagination fields, the serving-tier metrics endpoint with the result,
// plan and context caches, the per-source federation state, the liveness
// probe and the context memo's stats with read-your-writes. What needs
// the shipped binary (the serving-tier flags, a data node dying under
// -partial-results) is checked in cmd/crosse-server's tests.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"crosse/internal/core"
	"crosse/internal/engine"
	"crosse/internal/fdw"
	"crosse/internal/kb"
	"crosse/internal/serve"
	"crosse/internal/wal"
)

// newV1Server builds a test server with the full serving tier installed:
// result cache and admission limiter, returning the Server for white-box
// poking (e.g. saturating the limiter).
func newV1Server(t *testing.T, maxInflight, queueDepth int) (*httptest.Server, *Server) {
	t.Helper()
	db := engine.Open()
	if _, err := db.ExecScript(`
		CREATE TABLE landfill (name TEXT PRIMARY KEY, city TEXT);
		CREATE TABLE elem_contained (elem_name TEXT, landfill_name TEXT);
		INSERT INTO landfill VALUES ('a', 'Torino'), ('b', 'Milano');
		INSERT INTO elem_contained VALUES ('Mercury', 'a'), ('Zinc', 'a'), ('Gold', 'b');
	`); err != nil {
		t.Fatal(err)
	}
	p := kb.NewPlatform()
	e := core.New(db, p, nil)
	p.SetConceptChecker(core.NewConceptChecker(db, e.Mapping))
	s := NewServer(e)
	s.SetLogf(t.Logf)
	s.SetResultCache(serve.NewCache(128, 1<<20))
	s.SetAdmission(serve.NewLimiter(maxInflight, queueDepth))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, s
}

// envelope fetches and decodes an expected-error response, asserting the
// uniform {"error": {code, message}} shape.
func envelope(t *testing.T, resp *http.Response) apiError {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("error response Content-Type = %q, want application/json", ct)
	}
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("error body is not the uniform envelope: %v", err)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("envelope missing code/message: %+v", env.Error)
	}
	return env.Error
}

func postJSON(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestV1ErrorEnvelopeContract(t *testing.T) {
	ts, s := newV1Server(t, 1, 0)
	mustPost := func(path, body string) {
		t.Helper()
		resp := postJSON(t, ts.URL+path, body)
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			t.Fatalf("%s: %d", path, resp.StatusCode)
		}
	}
	mustPost("/api/v1/users", `{"name":"alice"}`)

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"malformed JSON", "POST", "/api/v1/users", `{`, http.StatusBadRequest, codeBadRequest},
		{"unknown field", "POST", "/api/v1/users", `{"nmae":"x"}`, http.StatusBadRequest, codeBadRequest},
		{"duplicate user", "POST", "/api/v1/users", `{"name":"alice"}`, http.StatusConflict, codeConflict},
		{"unknown user query", "POST", "/api/v1/query", `{"user":"ghost","sesql":"SELECT 1"}`, http.StatusNotFound, codeNotFound},
		{"bad SESQL", "POST", "/api/v1/query", `{"user":"alice","sesql":"SELEC"}`, http.StatusBadRequest, codeBadRequest},
		{"unknown user sparql", "POST", "/api/v1/sparql", `{"user":"ghost","query":"SELECT ?s WHERE { ?s ?p ?o }"}`, http.StatusNotFound, codeNotFound},
		{"missing statement import", "POST", "/api/v1/statements/stmt-99/import", `{"user":"alice"}`, http.StatusNotFound, codeNotFound},
		{"missing statement retract", "DELETE", "/api/v1/statements/stmt-99?user=alice", "", http.StatusNotFound, codeNotFound},
		{"wal not configured", "GET", "/api/v1/admin/wal", "", http.StatusConflict, codeConflict},
		{"sources not configured", "GET", "/api/v1/admin/sources", "", http.StatusConflict, codeConflict},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.wantStatus {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			if e := envelope(t, resp); e.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", e.Code, tc.wantCode)
			}
		})
	}

	// 429 under saturation: hold the only execution slot, then query.
	if err := s.limiter.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/api/v1/query", `{"user":"alice","sesql":"SELECT 1"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("saturated query status = %d, want 429", resp.StatusCode)
	}
	if e := envelope(t, resp); e.Code != codeOverloaded {
		t.Errorf("saturated code = %q, want %q", e.Code, codeOverloaded)
	}
	s.limiter.Release()
	// The slot is free again: the same query succeeds.
	resp = postJSON(t, ts.URL+"/api/v1/query", `{"user":"alice","sesql":"SELECT 1"}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-release query status = %d, want 200", resp.StatusCode)
	}

	// A burst against the one slot and no queue: the slot is held while
	// the first half runs and free for the second, which races for it.
	// Every answer is rows or the typed 429, and admission counts exactly
	// the 429s it sent.
	rejected := func() uint64 {
		t.Helper()
		var m struct{ Admission serve.LimiterStats }
		getJSON(t, ts.URL+"/api/v1/metrics", &m)
		return m.Admission.Rejected
	}
	before := rejected()
	const burst = 16
	const slow = `{"user":"alice","rank":true,"sesql":"SELECT elem_name, landfill_name FROM elem_contained ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)"}`
	var shed atomic.Int32
	fire := func(n int) {
		var wg sync.WaitGroup
		for range n {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/api/v1/query", "application/json", strings.NewReader(slow))
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				var out struct {
					Rows  [][]string `json:"rows"`
					Error *apiError  `json:"error"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					t.Errorf("burst answer: %v", err)
					return
				}
				switch {
				case resp.StatusCode == http.StatusOK && len(out.Rows) == 3 && out.Error == nil:
				case resp.StatusCode == http.StatusTooManyRequests && out.Error != nil && out.Error.Code == codeOverloaded:
					shed.Add(1)
				default:
					t.Errorf("burst answer: status %d, %d rows, error %+v; want 3 rows or a 429 %s envelope",
						resp.StatusCode, len(out.Rows), out.Error, codeOverloaded)
				}
			}()
		}
		wg.Wait()
	}
	if err := s.limiter.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	fire(burst / 2)
	s.limiter.Release()
	fire(burst / 2)
	if n := shed.Load(); n < burst/2 {
		t.Errorf("%d of %d burst queries shed, want at least the %d sent while the slot was held", n, burst, burst/2)
	}
	if got := rejected() - before; got != uint64(shed.Load()) {
		t.Errorf("admission.rejected rose by %d over the burst, but %d answers were 429", got, shed.Load())
	}
}

// getJSON decodes a 200 answer to GET url into out.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func TestV1SuccessStatsContract(t *testing.T) {
	ts, _ := newV1Server(t, 0, 0)
	resp := postJSON(t, ts.URL+"/api/v1/users", `{"name":"alice"}`)
	resp.Body.Close()

	// Success responses carry stats (elapsed, cache hit) even without
	// stats:true — the serving-tier portion is unconditional.
	type queryResp struct {
		Rows  [][]string `json:"rows"`
		Stats *struct {
			ElapsedUS int64 `json:"elapsed_us"`
			CacheHit  bool  `json:"cache_hit"`
			ParseUS   int64 `json:"parse_us"`
		} `json:"stats"`
	}
	var out queryResp
	get := func() {
		t.Helper()
		resp := postJSON(t, ts.URL+"/api/v1/query", `{"user":"alice","sesql":"SELECT COUNT(*) FROM landfill"}`)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query: %d", resp.StatusCode)
		}
		out = queryResp{}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	get()
	if out.Stats == nil {
		t.Fatal("success response missing stats")
	}
	if out.Stats.CacheHit {
		t.Error("first query must be a cache miss")
	}
	get()
	if !out.Stats.CacheHit {
		t.Error("repeat query must be a cache hit")
	}
	if len(out.Rows) != 1 || out.Rows[0][0] != "2" {
		t.Errorf("rows = %v", out.Rows)
	}

	// SPARQL responses carry the same serving stats.
	resp = postJSON(t, ts.URL+"/api/v1/sparql", `{"user":"alice","query":"SELECT ?s WHERE { ?s ?p ?o }"}`)
	defer resp.Body.Close()
	var sp struct {
		Stats *struct {
			CacheHit bool `json:"cache_hit"`
		} `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sp); err != nil {
		t.Fatal(err)
	}
	if sp.Stats == nil {
		t.Error("sparql response missing stats")
	}
}

func TestV1PaginationContract(t *testing.T) {
	ts, _ := newV1Server(t, 0, 0)
	for i := 0; i < 5; i++ {
		resp := postJSON(t, ts.URL+"/api/v1/users", fmt.Sprintf(`{"name":"u%d"}`, i))
		resp.Body.Close()
		resp = postJSON(t, ts.URL+"/api/v1/statements",
			fmt.Sprintf(`{"user":"u%d","subject":"S%d","property":"p","object":"O"}`, i, i))
		resp.Body.Close()
	}

	page := func(path, key string, wantLen, wantTotal, wantLimit, wantOffset int) {
		t.Helper()
		var out map[string]any
		getJSON(t, ts.URL+path, &out)
		items, ok := out[key].([]any)
		if !ok {
			t.Fatalf("%s: %q missing: %v", path, key, out)
		}
		if len(items) != wantLen {
			t.Errorf("%s: %d items, want %d", path, len(items), wantLen)
		}
		if got := int(out["total"].(float64)); got != wantTotal {
			t.Errorf("%s: total = %d, want %d", path, got, wantTotal)
		}
		if got := int(out["limit"].(float64)); got != wantLimit {
			t.Errorf("%s: limit = %d, want %d", path, got, wantLimit)
		}
		if got := int(out["offset"].(float64)); got != wantOffset {
			t.Errorf("%s: offset = %d, want %d", path, got, wantOffset)
		}
	}

	page("/api/v1/users", "users", 5, 5, defaultPageLimit, 0)
	page("/api/v1/users?limit=2", "users", 2, 5, 2, 0)
	page("/api/v1/users?limit=2&offset=4", "users", 1, 5, 2, 4)
	page("/api/v1/users?offset=99", "users", 0, 5, defaultPageLimit, 99)
	page("/api/v1/statements?limit=3", "statements", 3, 5, 3, 0)
	page("/api/v1/statements?owner=u1", "statements", 1, 1, defaultPageLimit, 0)
	page("/api/v1/queries", "queries", 0, 0, defaultPageLimit, 0)

	// Recommendations: other users' statements are recommended to u1; the
	// exact count belongs to the recommender, so only check the window
	// arithmetic — limit=1 returns one item out of the same total.
	var recs struct {
		Recommendations []any `json:"recommendations"`
		Total           int   `json:"total"`
	}
	getJSON(t, ts.URL+"/api/v1/recommendations?user=u1", &recs)
	if recs.Total != len(recs.Recommendations) {
		t.Errorf("recommendations: total = %d, items = %d", recs.Total, len(recs.Recommendations))
	}
	if recs.Total > 0 {
		page("/api/v1/recommendations?user=u1&limit=1", "recommendations", 1, recs.Total, 1, 0)
	}

	// Invalid limit/offset fall back to the defaults instead of erroring.
	page("/api/v1/users?limit=bogus&offset=-3", "users", 5, 5, defaultPageLimit, 0)
}

func TestLegacyAliasesRemoved(t *testing.T) {
	ts, _ := newV1Server(t, 0, 0)
	resp, err := http.Get(ts.URL + "/api/users")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unversioned /api/users: status %d, want 404", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newV1Server(t, 4, 2)
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/api/v1/users")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp := postJSON(t, ts.URL+"/api/v1/users", `{"name":"alice"}`)
	resp.Body.Close()
	query := func(sesql string) [][]string {
		t.Helper()
		resp := postJSON(t, ts.URL+"/api/v1/query", `{"user":"alice","sesql":"`+sesql+`"}`)
		defer resp.Body.Close()
		var out struct{ Rows [][]string }
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d, %v", sesql, resp.StatusCode, err)
		}
		return out.Rows
	}
	// The repeat is answered by the result cache.
	query("SELECT 1")
	query("SELECT 1")

	type metrics struct {
		Endpoints map[string]struct {
			Requests uint64            `json:"requests"`
			InFlight int64             `json:"in_flight"`
			Status   map[string]uint64 `json:"status"`
			Latency  struct {
				Count uint64 `json:"count"`
				P50US int64  `json:"p50_us"`
				P95US int64  `json:"p95_us"`
				P99US int64  `json:"p99_us"`
			} `json:"latency"`
		} `json:"endpoints"`
		ResultCache *serve.CacheStats   `json:"result_cache"`
		Admission   *serve.LimiterStats `json:"admission"`
		PlanCache   map[string]int      `json:"plan_cache"`
	}
	var before metrics
	getJSON(t, ts.URL+"/api/v1/metrics", &before)

	// Two literals of one shape: each answers its own row, and the second
	// reuses the plan the first compiled.
	for _, lf := range []string{"a", "b"} {
		if got := query("SELECT name FROM landfill WHERE name = '" + lf + "'"); !reflect.DeepEqual(got, [][]string{{lf}}) {
			t.Errorf("landfill %s: rows %v", lf, got)
		}
	}

	var out metrics
	getJSON(t, ts.URL+"/api/v1/metrics", &out)
	list := out.Endpoints["GET /api/v1/users"]
	if list.Requests != 3 {
		t.Errorf("GET /api/v1/users requests = %d, want 3", list.Requests)
	}
	if list.Status["2xx"] != 3 || list.Latency.Count != 3 {
		t.Errorf("endpoint stats = %+v", list)
	}
	q := out.Endpoints["POST /api/v1/query"]
	if q.Requests != 4 || q.Latency.P50US <= 0 {
		t.Errorf("query endpoint stats = %+v", q)
	}
	if out.ResultCache == nil || out.ResultCache.Misses == 0 || out.ResultCache.Hits == 0 {
		t.Errorf("result_cache = %+v, want a miss and a hit", out.ResultCache)
	}
	if out.Admission == nil || out.Admission.MaxInflight != 4 || out.Admission.Admitted == 0 {
		t.Errorf("admission = %+v", out.Admission)
	}
	for _, k := range []string{"hits", "misses", "context_hits", "context_misses"} {
		if _, ok := out.PlanCache[k]; !ok {
			t.Errorf("plan_cache.%s missing: %v", k, out.PlanCache)
		}
	}
	if out.PlanCache["hits"] <= before.PlanCache["hits"] {
		t.Errorf("plan_cache.hits %d after two literals of one shape, %d before", out.PlanCache["hits"], before.PlanCache["hits"])
	}
}

// Enriched queries differing only in their SQL literals share the user's
// context extract: the second reports stats.context_hits, and a belief
// inserted afterwards shows in the next fresh-literal query.
func TestV1ContextMemoContract(t *testing.T) {
	ts, _ := newV1Server(t, 0, 0)
	postJSON(t, ts.URL+"/api/v1/users", `{"name":"alice"}`).Body.Close()
	insert := func(level string) {
		t.Helper()
		resp := postJSON(t, ts.URL+"/api/v1/statements",
			`{"user":"alice","subject":"Mercury","property":"dangerLevel","object":"`+level+`","object_literal":true}`)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("insert %s: %d", level, resp.StatusCode)
		}
	}
	type queryResp struct {
		Rows  [][]string `json:"rows"`
		Stats struct {
			ContextHits   int      `json:"context_hits"`
			SPARQLQueries []string `json:"sparql_queries"`
		} `json:"stats"`
	}
	query := func(lit int) queryResp {
		t.Helper()
		resp := postJSON(t, ts.URL+"/api/v1/query", fmt.Sprintf(
			`{"user":"alice","stats":true,"sesql":"SELECT elem_name FROM elem_contained WHERE landfill_name <> 'x%d' ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)"}`, lit))
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query x%d: %d", lit, resp.StatusCode)
		}
		var out queryResp
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	levels := func(r queryResp) string {
		var got []string
		for _, row := range r.Rows {
			if row[0] == "Mercury" {
				got = append(got, row[1])
			}
		}
		sort.Strings(got)
		return strings.Join(got, ",")
	}

	insert("high")
	first := query(1)
	if first.Stats.ContextHits != 0 || len(first.Stats.SPARQLQueries) != 1 {
		t.Errorf("first query: context_hits %d, sparql_queries %v; want a miss that runs one query",
			first.Stats.ContextHits, first.Stats.SPARQLQueries)
	}
	second := query(2)
	if second.Stats.ContextHits < 1 || len(second.Stats.SPARQLQueries) != 0 {
		t.Errorf("second query: context_hits %d, sparql_queries %v; want a memo hit and no query",
			second.Stats.ContextHits, second.Stats.SPARQLQueries)
	}
	if got := levels(second); got != "high" {
		t.Errorf("Mercury levels %q, want high", got)
	}

	insert("severe")
	third := query(3)
	if got := levels(third); got != "high,severe" {
		t.Errorf("after insert: Mercury levels %q, want high,severe", got)
	}
	if third.Stats.ContextHits != 0 {
		t.Errorf("after insert: context_hits %d, want a miss", third.Stats.ContextHits)
	}

	// The metrics count the same memo: two misses around the hit.
	var m struct {
		PlanCache map[string]int `json:"plan_cache"`
	}
	getJSON(t, ts.URL+"/api/v1/metrics", &m)
	if m.PlanCache["context_hits"] < 1 || m.PlanCache["context_misses"] < 2 {
		t.Errorf("plan_cache = %v, want context_hits >= 1 and context_misses >= 2", m.PlanCache)
	}
}

// The per-source federation state: GET /api/v1/admin/sources and the
// sources section of /api/v1/metrics report the same fields, conns among
// them.
func TestV1SourcesContract(t *testing.T) {
	ts, s := newV1Server(t, 0, 0)
	remote := engine.Open()
	if _, err := remote.ExecScript(`CREATE TABLE registry (id INT); INSERT INTO registry VALUES (1);`); err != nil {
		t.Fatal(err)
	}
	a, b := net.Pipe()
	go fdw.NewServer(remote.Catalog()).ServeConn(a)
	client := fdw.NewClientConfig(b, fdw.Config{Name: "registry"})
	t.Cleanup(func() { client.Close() })
	if _, err := client.Tables(); err != nil {
		t.Fatal(err)
	}
	h := fdw.NewHealth()
	h.Register(client)
	s.SetHealth(h)

	fields := []string{"name", "state", "requests", "rows", "retries", "circuit_trips", "rejected_fast", "failed", "conns"}
	check := func(where string, sources []map[string]any) {
		t.Helper()
		if len(sources) != 1 {
			t.Fatalf("%s: sources = %v, want one", where, sources)
		}
		for _, k := range fields {
			if _, ok := sources[0][k]; !ok {
				t.Errorf("%s: source field %q missing: %v", where, k, sources[0])
			}
		}
		if sources[0]["name"] != "registry" || sources[0]["conns"] != 1.0 {
			t.Errorf("%s: source = %v, want registry on one connection", where, sources[0])
		}
	}
	for _, path := range []string{"/api/v1/admin/sources", "/api/v1/metrics"} {
		var out struct {
			Sources []map[string]any `json:"sources"`
		}
		getJSON(t, ts.URL+path, &out)
		check(path, out.Sources)
	}
}

// GET /healthz: "ok" on a node with no journal and no sources, "degraded"
// but still 200 while a source's circuit is open, and "degraded" with 503
// once a fault has wedged the journal.
func TestHealthzContract(t *testing.T) {
	ts, s := newV1Server(t, 0, 0)
	type source struct{ Name, State string }
	type health struct {
		Status  string
		Sources []source
		WAL     *struct{ Wedged bool }
	}
	probe := func(wantCode int, wantStatus string) health {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != wantCode || h.Status != wantStatus {
			t.Fatalf("healthz: %d %+v, want %d %q", resp.StatusCode, h, wantCode, wantStatus)
		}
		return h
	}
	if h := probe(http.StatusOK, "ok"); h.Sources != nil || h.WAL != nil {
		t.Errorf("a bare node reports %+v", h)
	}

	remote := engine.Open()
	a, b := net.Pipe()
	go fdw.NewServer(remote.Catalog()).ServeConn(a)
	client := fdw.NewClientConfig(b, fdw.Config{Name: "registry"})
	t.Cleanup(func() { client.Close() })
	h := fdw.NewHealth()
	h.Register(client)
	s.SetHealth(h)
	for st, _ := client.Breaker().State(); st != fdw.BreakerOpen; st, _ = client.Breaker().State() {
		client.Breaker().Failure(errors.New("registry unreachable"))
	}
	if got := probe(http.StatusOK, "degraded").Sources; !reflect.DeepEqual(got, []source{{"registry", "open"}}) {
		t.Errorf("sources with the circuit open: %+v", got)
	}
	client.Breaker().Success()
	probe(http.StatusOK, "ok")

	ffs := wal.NewFaultFS(wal.NewMemFS())
	j, _, err := core.OpenJournal("j", core.JournalOptions{FS: ffs, Sync: wal.SyncAlways}, func() (*engine.DB, *kb.Platform, error) {
		return engine.Open(), kb.NewPlatform(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	s.SetJournal(j)
	if h := probe(http.StatusOK, "ok"); h.WAL == nil || h.WAL.Wedged {
		t.Errorf("healthy journal: wal %+v", h.WAL)
	}
	// The first write's log flush fails; the next append finds the log
	// broken after its mutation applied, and wedges the journal.
	ffs.FaultAt(1, wal.FaultError)
	for i := 0; j.Wedged() == nil; i++ {
		if i == 3 {
			t.Fatal("the journal did not wedge")
		}
		postJSON(t, ts.URL+"/api/v1/users", fmt.Sprintf(`{"name":"u%d"}`, i)).Body.Close()
	}
	if h := probe(http.StatusServiceUnavailable, "degraded"); h.WAL == nil || !h.WAL.Wedged ||
		!reflect.DeepEqual(h.Sources, []source{{"registry", "closed"}}) {
		t.Errorf("wedged journal: wal %+v, sources %+v", h.WAL, h.Sources)
	}
}
