package rest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"crosse/internal/core"
	"crosse/internal/engine"
	"crosse/internal/kb"
)

func newTestServer(t *testing.T) *httptest.Server {
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
	ts := httptest.NewServer(NewServer(e).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func doJSON(t *testing.T, method, url string, body any) (int, map[string]any) {
	t.Helper()
	var rdr *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rdr = bytes.NewReader(raw)
	} else {
		rdr = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rdr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("bad JSON response: %v", err)
	}
	return resp.StatusCode, out
}

func TestUserLifecycle(t *testing.T) {
	ts := newTestServer(t)
	code, _ := doJSON(t, "POST", ts.URL+"/api/v1/users", map[string]string{"name": "alice"})
	if code != http.StatusCreated {
		t.Fatalf("create user: %d", code)
	}
	code, _ = doJSON(t, "POST", ts.URL+"/api/v1/users", map[string]string{"name": "alice"})
	if code != http.StatusConflict {
		t.Errorf("duplicate user: %d", code)
	}
	code, out := doJSON(t, "GET", ts.URL+"/api/v1/users", nil)
	if code != http.StatusOK {
		t.Fatalf("list users: %d", code)
	}
	users := out["users"].([]any)
	if len(users) != 1 || users[0] != "alice" {
		t.Errorf("users = %v", users)
	}
}

func TestAnnotationAndQueryFlow(t *testing.T) {
	ts := newTestServer(t)
	doJSON(t, "POST", ts.URL+"/api/v1/users", map[string]string{"name": "alice"})

	// Independent annotation with a reference.
	code, out := doJSON(t, "POST", ts.URL+"/api/v1/statements", map[string]any{
		"user": "alice", "subject": "Mercury", "property": "dangerLevel",
		"object": "high", "object_literal": true,
		"ref": map[string]string{"title": "WHO report"},
	})
	if code != http.StatusCreated {
		t.Fatalf("create statement: %d %v", code, out)
	}

	// SESQL query through the API, with stats.
	code, out = doJSON(t, "POST", ts.URL+"/api/v1/query", map[string]any{
		"user": "alice",
		"sesql": `SELECT elem_name FROM elem_contained WHERE landfill_name = 'a'
ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)`,
		"stats": true,
	})
	if code != http.StatusOK {
		t.Fatalf("query: %d %v", code, out)
	}
	cols := out["columns"].([]any)
	if len(cols) != 2 || cols[1] != "dangerLevel" {
		t.Errorf("columns = %v", cols)
	}
	rows := out["rows"].([]any)
	if len(rows) != 2 {
		t.Errorf("rows = %v", rows)
	}
	foundHigh := false
	for _, r := range rows {
		cells := r.([]any)
		if cells[0] == "Mercury" && cells[1] == "high" {
			foundHigh = true
		}
	}
	if !foundHigh {
		t.Errorf("Mercury|high missing: %v", rows)
	}
	if out["stats"] == nil {
		t.Error("stats requested but missing")
	}
}

func TestIntegratedAnnotationOverREST(t *testing.T) {
	ts := newTestServer(t)
	doJSON(t, "POST", ts.URL+"/api/v1/users", map[string]string{"name": "u"})
	// Mercury exists in the databank → integrated OK.
	code, _ := doJSON(t, "POST", ts.URL+"/api/v1/statements", map[string]any{
		"user": "u", "subject": "Mercury", "property": "note",
		"object": "x", "object_literal": true, "integrated": true,
	})
	if code != http.StatusCreated {
		t.Errorf("integrated annotation of db concept: %d", code)
	}
	// Unknown concept → rejected.
	code, _ = doJSON(t, "POST", ts.URL+"/api/v1/statements", map[string]any{
		"user": "u", "subject": "Unobtainium", "property": "note",
		"object": "x", "object_literal": true, "integrated": true,
	})
	if code != http.StatusBadRequest {
		t.Errorf("integrated annotation of unknown concept: %d", code)
	}
}

func TestCrowdsourcedImportOverREST(t *testing.T) {
	ts := newTestServer(t)
	doJSON(t, "POST", ts.URL+"/api/v1/users", map[string]string{"name": "alice"})
	doJSON(t, "POST", ts.URL+"/api/v1/users", map[string]string{"name": "bob"})
	_, out := doJSON(t, "POST", ts.URL+"/api/v1/statements", map[string]any{
		"user": "alice", "subject": "Mercury", "property": "isA", "object": "HazardousWaste",
	})
	id := out["id"].(string)

	// Bob explores alice's public statements…
	_, out = doJSON(t, "GET", ts.URL+"/api/v1/statements?owner=alice", nil)
	sts := out["statements"].([]any)
	if len(sts) != 1 {
		t.Fatalf("explore: %v", out)
	}
	// …and imports one.
	code, _ := doJSON(t, "POST", ts.URL+"/api/v1/statements/"+id+"/import", map[string]string{"user": "bob"})
	if code != http.StatusOK {
		t.Fatalf("import: %d", code)
	}
	_, out = doJSON(t, "GET", ts.URL+"/api/v1/statements", nil)
	st := out["statements"].([]any)[0].(map[string]any)
	believers := st["believers"].([]any)
	if len(believers) != 2 {
		t.Errorf("believers = %v", believers)
	}
	// Retract bob's belief.
	code, _ = doJSON(t, "DELETE", ts.URL+"/api/v1/statements/"+id+"?user=bob", nil)
	if code != http.StatusOK {
		t.Errorf("retract: %d", code)
	}
}

func TestSPARQLEndpoint(t *testing.T) {
	ts := newTestServer(t)
	doJSON(t, "POST", ts.URL+"/api/v1/users", map[string]string{"name": "u"})
	doJSON(t, "POST", ts.URL+"/api/v1/statements", map[string]any{
		"user": "u", "subject": "Mercury", "property": "isA", "object": "HazardousWaste",
	})
	code, out := doJSON(t, "POST", ts.URL+"/api/v1/sparql", map[string]string{
		"user":  "u",
		"query": `SELECT ?x WHERE { ?x <` + core.DefaultIRIPrefix + `isA> <` + core.DefaultIRIPrefix + `HazardousWaste> }`,
	})
	if code != http.StatusOK {
		t.Fatalf("sparql: %d %v", code, out)
	}
	bindings := out["bindings"].([]any)
	if len(bindings) != 1 {
		t.Fatalf("bindings = %v", bindings)
	}
	x := bindings[0].(map[string]any)["x"].(string)
	if !strings.HasSuffix(x, "Mercury") {
		t.Errorf("x = %q", x)
	}
}

// The endpoint evaluates through the enricher: a repeated text reuses the
// cached plan, the serial-fallback reason is reported as for /query, and
// ASK answers under "bool".
func TestSPARQLEndpointUsesEnricherPlans(t *testing.T) {
	ts := newTestServer(t)
	doJSON(t, "POST", ts.URL+"/api/v1/users", map[string]string{"name": "u"})
	doJSON(t, "POST", ts.URL+"/api/v1/statements", map[string]any{
		"user": "u", "subject": "Mercury", "property": "isA", "object": "HazardousWaste",
	})
	pattern := `{ ?x <` + core.DefaultIRIPrefix + `isA> <` + core.DefaultIRIPrefix + `HazardousWaste> }`
	for i := 0; i < 2; i++ {
		code, out := doJSON(t, "POST", ts.URL+"/api/v1/sparql", map[string]string{"user": "u", "query": `SELECT ?x WHERE ` + pattern})
		if code != http.StatusOK {
			t.Fatalf("sparql: %d %v", code, out)
		}
		if fb, _ := out["stats"].(map[string]any)["parallel_fallback"].(string); !strings.HasPrefix(fb, "sparql: ") {
			t.Errorf("stats.parallel_fallback = %q, want a sparql: reason", fb)
		}
	}
	_, metrics := doJSON(t, "GET", ts.URL+"/api/v1/metrics", nil)
	if hits := metrics["plan_cache"].(map[string]any)["hits"].(float64); hits < 1 {
		t.Errorf("plan_cache.hits = %v after a repeated SPARQL text, want >= 1", hits)
	}

	code, out := doJSON(t, "POST", ts.URL+"/api/v1/sparql", map[string]string{"user": "u", "query": `ASK ` + pattern})
	if code != http.StatusOK || out["bool"] != true {
		t.Errorf("ask: %d %v", code, out)
	}
}

func TestStoredQueryEndpoints(t *testing.T) {
	ts := newTestServer(t)
	doJSON(t, "POST", ts.URL+"/api/v1/users", map[string]string{"name": "u"})
	code, _ := doJSON(t, "POST", ts.URL+"/api/v1/queries", map[string]string{
		"name": "dangerQuery",
		"text": `SELECT ?x WHERE { ?x <` + core.DefaultIRIPrefix + `isA> <` + core.DefaultIRIPrefix + `HazardousWaste> }`,
	})
	if code != http.StatusCreated {
		t.Fatalf("register query: %d", code)
	}
	_, out := doJSON(t, "GET", ts.URL+"/api/v1/queries?user=u", nil)
	qs := out["queries"].([]any)
	if len(qs) != 1 {
		t.Errorf("queries = %v", qs)
	}
	// Bad SPARQL rejected.
	code, _ = doJSON(t, "POST", ts.URL+"/api/v1/queries", map[string]string{"name": "bad", "text": "SELECT"})
	if code != http.StatusBadRequest {
		t.Errorf("bad query registration: %d", code)
	}
}

func TestTablesEndpoint(t *testing.T) {
	ts := newTestServer(t)
	code, out := doJSON(t, "GET", ts.URL+"/api/v1/tables", nil)
	if code != http.StatusOK {
		t.Fatalf("tables: %d", code)
	}
	tables := out["tables"].([]any)
	if len(tables) != 2 {
		t.Errorf("tables = %v", tables)
	}
	first := tables[0].(map[string]any)
	if first["name"] != "elem_contained" {
		t.Errorf("first table = %v", first)
	}
}

func TestErrorPaths(t *testing.T) {
	ts := newTestServer(t)
	// Unknown user query: typed kb.ErrUnknownUser → 404.
	code, _ := doJSON(t, "POST", ts.URL+"/api/v1/query", map[string]string{"user": "ghost", "sesql": "SELECT 1"})
	if code != http.StatusNotFound {
		t.Errorf("ghost query: %d", code)
	}
	// Malformed JSON body.
	resp, err := http.Post(ts.URL+"/api/v1/users", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: %d", resp.StatusCode)
	}
	// Unknown fields rejected (catches client typos).
	code, _ = doJSON(t, "POST", ts.URL+"/api/v1/users", map[string]string{"nmae": "x"})
	if code != http.StatusBadRequest {
		t.Errorf("unknown field: %d", code)
	}
	// Missing statement fields.
	code, _ = doJSON(t, "POST", ts.URL+"/api/v1/statements", map[string]any{"user": "u"})
	if code != http.StatusBadRequest {
		t.Errorf("incomplete statement: %d", code)
	}
	// Import into missing statement: typed kb.ErrNoStatement → 404.
	doJSON(t, "POST", ts.URL+"/api/v1/users", map[string]string{"name": "u"})
	code, _ = doJSON(t, "POST", ts.URL+"/api/v1/statements/stmt-99/import", map[string]string{"user": "u"})
	if code != http.StatusNotFound {
		t.Errorf("import missing: %d", code)
	}
	// Retract without user.
	req, _ := http.NewRequest("DELETE", ts.URL+"/api/v1/statements/stmt-1", nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("retract without user: %d", resp2.StatusCode)
	}
}

func TestContextualAnswersDifferPerUser(t *testing.T) {
	ts := newTestServer(t)
	for _, u := range []string{"researcher", "planner"} {
		doJSON(t, "POST", ts.URL+"/api/v1/users", map[string]string{"name": u})
	}
	// The researcher tags Mercury as hazardous; the planner tags Zinc.
	doJSON(t, "POST", ts.URL+"/api/v1/statements", map[string]any{
		"user": "researcher", "subject": "Mercury", "property": "isA", "object": "HazardousWaste"})
	doJSON(t, "POST", ts.URL+"/api/v1/statements", map[string]any{
		"user": "planner", "subject": "Zinc", "property": "isA", "object": "HazardousWaste"})

	q := `SELECT elem_name FROM elem_contained WHERE landfill_name = 'a'
ENRICH BOOLSCHEMAEXTENSION(elem_name, isA, HazardousWaste)`
	results := map[string]string{}
	for _, u := range []string{"researcher", "planner"} {
		_, out := doJSON(t, "POST", ts.URL+"/api/v1/query", map[string]any{"user": u, "sesql": q})
		raw, _ := json.Marshal(out["rows"])
		results[u] = string(raw)
	}
	if results["researcher"] == results["planner"] {
		t.Error("the same query must answer differently in different contexts")
	}
	for u, r := range results {
		if !strings.Contains(r, "true") {
			t.Errorf("%s sees no hazardous element: %s", u, r)
		}
	}
}

func TestStatementListingFilters(t *testing.T) {
	ts := newTestServer(t)
	doJSON(t, "POST", ts.URL+"/api/v1/users", map[string]string{"name": "a"})
	doJSON(t, "POST", ts.URL+"/api/v1/users", map[string]string{"name": "b"})
	for i, u := range []string{"a", "b", "a"} {
		doJSON(t, "POST", ts.URL+"/api/v1/statements", map[string]any{
			"user": u, "subject": fmt.Sprintf("S%d", i), "property": "p", "object": "O"})
	}
	_, out := doJSON(t, "GET", ts.URL+"/api/v1/statements?owner=a", nil)
	if n := len(out["statements"].([]any)); n != 2 {
		t.Errorf("owner filter: %d", n)
	}
	_, out = doJSON(t, "GET", ts.URL+"/api/v1/statements?property=p", nil)
	if n := len(out["statements"].([]any)); n != 3 {
		t.Errorf("property filter: %d", n)
	}
}
