// End-to-end integration tests: the full CroSSE deployment shape — a remote
// FDW data node, the main platform with foreign tables attached, the
// semantic platform with multiple users, the REST API on top — exercised
// through the same paths the binaries use.
package crosse

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"crosse/internal/core"
	"crosse/internal/dataset"
	"crosse/internal/engine"
	"crosse/internal/fdw"
	"crosse/internal/kb"
	"crosse/internal/rest"
)

// deployment wires the whole system the way cmd/crosse-server does.
type deployment struct {
	ts       *httptest.Server
	enricher *core.Enricher
}

func deploy(t *testing.T) *deployment {
	t.Helper()

	// Remote registry node.
	remote := engine.Open()
	cfg := dataset.DefaultConfig()
	cfg.Landfills = 30
	if err := dataset.Populate(remote, cfg); err != nil {
		t.Fatal(err)
	}
	srv := fdw.NewServer(remote.Catalog())
	a, b := net.Pipe()
	go srv.ServeConn(a)
	client := fdw.NewClient(b)
	t.Cleanup(func() { client.Close() })

	// Main platform with local data + attached foreign tables.
	local := engine.Open()
	if _, err := local.ExecScript(`
		CREATE TABLE my_sites (site TEXT, eu_landfill TEXT);
		INSERT INTO my_sites VALUES
			('alpha', 'landfill_0001'), ('beta', 'landfill_0002')`); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Attach(local.Catalog(), "eu_"); err != nil {
		t.Fatal(err)
	}

	platform := kb.NewPlatform()
	if err := dataset.RegisterDangerQuery(platform); err != nil {
		t.Fatal(err)
	}
	enricher := core.New(local, platform, nil)
	platform.SetConceptChecker(core.NewConceptChecker(local, enricher.Mapping))

	ts := httptest.NewServer(rest.NewServer(enricher).Handler())
	t.Cleanup(ts.Close)
	return &deployment{ts: ts, enricher: enricher}
}

func (d *deployment) call(t *testing.T, method, path string, body any) (int, map[string]any) {
	t.Helper()
	var payload []byte
	if body != nil {
		var err error
		payload, err = json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, d.ts.URL+path, bytes.NewReader(payload))
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
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestEndToEndFederatedEnrichedQuery(t *testing.T) {
	d := deploy(t)

	// Federated tables are visible through the API.
	_, out := d.call(t, "GET", "/api/v1/tables", nil)
	tables := out["tables"].([]any)
	names := map[string]bool{}
	for _, tb := range tables {
		names[tb.(map[string]any)["name"].(string)] = true
	}
	for _, want := range []string{"my_sites", "eu_landfill", "eu_elem_contained"} {
		if !names[want] {
			t.Fatalf("table %s missing from %v", want, names)
		}
	}

	// A user annotates elements as hazardous, via the API.
	d.call(t, "POST", "/api/v1/users", map[string]string{"name": "analyst"})
	for _, e := range []string{"element_000", "element_001"} {
		code, resp := d.call(t, "POST", "/api/v1/statements", map[string]any{
			"user": "analyst", "subject": e, "property": "isA", "object": "HazardousWaste",
		})
		if code != http.StatusCreated {
			t.Fatalf("annotate %s: %d %v", e, code, resp)
		}
	}

	// A SESQL query joining LOCAL data against the REMOTE registry,
	// enriched with the analyst's context — every subsystem in one query.
	code, out := d.call(t, "POST", "/api/v1/query", map[string]any{
		"user": "analyst",
		"sesql": `SELECT m.site, e.elem_name
FROM my_sites m JOIN eu_elem_contained e ON m.eu_landfill = e.landfill_name
ENRICH BOOLSCHEMAEXTENSION(elem_name, isA, HazardousWaste)`,
		"stats": true,
	})
	if code != http.StatusOK {
		t.Fatalf("federated enriched query: %d %v", code, out)
	}
	cols := out["columns"].([]any)
	if len(cols) != 3 || cols[2] != "isA" {
		t.Fatalf("columns = %v", cols)
	}
	rows := out["rows"].([]any)
	if len(rows) == 0 {
		t.Fatal("no rows from federated join")
	}
	sawTrue, sawFalse := false, false
	for _, r := range rows {
		switch r.([]any)[2] {
		case "true":
			sawTrue = true
		case "false":
			sawFalse = true
		}
	}
	if !sawTrue || !sawFalse {
		t.Errorf("boolean enrichment uninformative: true=%v false=%v", sawTrue, sawFalse)
	}
	if out["stats"] == nil {
		t.Error("stats missing")
	}
}

func TestEndToEndCrowdsourcingAndRecommendation(t *testing.T) {
	d := deploy(t)
	for _, u := range []string{"expert", "novice"} {
		d.call(t, "POST", "/api/v1/users", map[string]string{"name": u})
	}
	// The expert publishes knowledge; the novice imports one statement.
	var firstID string
	for i := 0; i < 3; i++ {
		_, out := d.call(t, "POST", "/api/v1/statements", map[string]any{
			"user": "expert", "subject": fmt.Sprintf("element_%03d", i),
			"property": "isA", "object": "HazardousWaste"})
		if firstID == "" {
			firstID = out["id"].(string)
		}
	}
	d.call(t, "POST", "/api/v1/statements/"+firstID+"/import", map[string]string{"user": "novice"})

	// The novice's peers: the expert.
	_, out := d.call(t, "GET", "/api/v1/peers?user=novice", nil)
	peers := out["peers"].([]any)
	if len(peers) != 1 || peers[0].(map[string]any)["user"] != "expert" {
		t.Fatalf("peers = %v", peers)
	}

	// Recommendations: the expert's other two statements.
	_, out = d.call(t, "GET", "/api/v1/recommendations?user=novice", nil)
	recs := out["recommendations"].([]any)
	if len(recs) != 2 {
		t.Fatalf("recs = %v", recs)
	}

	// Import one recommendation and query with the new context.
	recID := recs[0].(map[string]any)["statement"].(map[string]any)["id"].(string)
	d.call(t, "POST", "/api/v1/statements/"+recID+"/import", map[string]string{"user": "novice"})
	code, out := d.call(t, "POST", "/api/v1/query", map[string]any{
		"user":  "novice",
		"sesql": `SELECT elem_name FROM eu_elem_contained ENRICH BOOLSCHEMAEXTENSION(elem_name, isA, HazardousWaste)`,
	})
	if code != http.StatusOK {
		t.Fatalf("query: %d %v", code, out)
	}
	trueCount := 0
	for _, r := range out["rows"].([]any) {
		if r.([]any)[1] == "true" {
			trueCount++
		}
	}
	if trueCount == 0 {
		t.Error("imported knowledge must affect enrichment")
	}
}

func TestEndToEndStatsShapesSane(t *testing.T) {
	d := deploy(t)
	d.call(t, "POST", "/api/v1/users", map[string]string{"name": "u"})
	d.call(t, "POST", "/api/v1/statements", map[string]any{
		"user": "u", "subject": "element_000", "property": "dangerLevel",
		"object": "high", "object_literal": true})
	_, out := d.call(t, "POST", "/api/v1/query", map[string]any{
		"user":  "u",
		"sesql": `SELECT elem_name FROM eu_elem_contained ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)`,
		"stats": true,
	})
	stats := out["stats"].(map[string]any)
	if stats["base_rows"].(float64) <= 0 || stats["final_rows"].(float64) <= 0 {
		t.Errorf("row counts: %v", stats)
	}
	sparqls := stats["sparql_queries"].([]any)
	if len(sparqls) != 1 || !strings.Contains(sparqls[0].(string), "dangerLevel") {
		t.Errorf("sparql queries: %v", sparqls)
	}
	// A schema-only enrichment needs no final SQL: the projection is
	// answered from the join buffer, so the stats report an empty text.
	if s, ok := stats["final_sql"].(string); ok && s != "" {
		t.Errorf("final sql should be skipped for a pure projection: %v", s)
	}
}
