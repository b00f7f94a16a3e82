package rest

import (
	"net/http"
	"testing"
)

// seedCommunity registers users and cross-linked knowledge for the peer
// services.
func seedCommunity(t *testing.T, url string) {
	t.Helper()
	for _, u := range []string{"alice", "bob", "carol"} {
		doJSON(t, "POST", url+"/api/v1/users", map[string]string{"name": u})
	}
	// Alice publishes three statements.
	var ids []string
	for _, s := range []string{"Mercury", "Zinc", "Gold"} {
		_, out := doJSON(t, "POST", url+"/api/v1/statements", map[string]any{
			"user": "alice", "subject": s, "property": "isA", "object": "HazardousWaste"})
		ids = append(ids, out["id"].(string))
	}
	// Bob imports two of them, so alice↔bob are belief-similar.
	for _, id := range ids[:2] {
		doJSON(t, "POST", url+"/api/v1/statements/"+id+"/import", map[string]string{"user": "bob"})
	}
	// Bob adds one of his own: recommendation material for alice.
	doJSON(t, "POST", url+"/api/v1/statements", map[string]any{
		"user": "bob", "subject": "Asbestos", "property": "isA", "object": "HazardousWaste"})
}

func TestPeersEndpoint(t *testing.T) {
	ts := newTestServer(t)
	seedCommunity(t, ts.URL)

	code, out := doJSON(t, "GET", ts.URL+"/api/v1/peers?user=alice", nil)
	if code != http.StatusOK {
		t.Fatalf("peers: %d %v", code, out)
	}
	peers := out["peers"].([]any)
	if len(peers) != 1 {
		t.Fatalf("peers = %v", peers)
	}
	first := peers[0].(map[string]any)
	if first["user"] != "bob" || first["score"].(float64) <= 0 {
		t.Errorf("first peer = %v", first)
	}

	// Interests mode also works.
	code, out = doJSON(t, "GET", ts.URL+"/api/v1/peers?user=carol&by=interests", nil)
	if code != http.StatusOK {
		t.Fatalf("interest peers: %d", code)
	}
	// Missing user rejected.
	code, _ = doJSON(t, "GET", ts.URL+"/api/v1/peers", nil)
	if code != http.StatusBadRequest {
		t.Errorf("missing user: %d", code)
	}
}

func TestRecommendationsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	seedCommunity(t, ts.URL)

	code, out := doJSON(t, "GET", ts.URL+"/api/v1/recommendations?user=alice&k=5", nil)
	if code != http.StatusOK {
		t.Fatalf("recommendations: %d %v", code, out)
	}
	recs := out["recommendations"].([]any)
	if len(recs) != 1 {
		t.Fatalf("recs = %v", recs)
	}
	rec := recs[0].(map[string]any)
	st := rec["statement"].(map[string]any)
	if st["owner"] != "bob" {
		t.Errorf("recommended statement = %v", st)
	}
	via := rec["via"].([]any)
	if len(via) != 1 || via[0] != "bob" {
		t.Errorf("via = %v", via)
	}
}

func TestSnippetEndpoint(t *testing.T) {
	ts := newTestServer(t)
	seedCommunity(t, ts.URL)

	code, out := doJSON(t, "GET", ts.URL+"/api/v1/snippet?user=alice&concept=Mercury", nil)
	if code != http.StatusOK {
		t.Fatalf("snippet: %d %v", code, out)
	}
	facts := out["facts"].([]any)
	if len(facts) != 1 {
		t.Fatalf("facts = %v", facts)
	}
	f := facts[0].(map[string]any)
	if f["property"] != "isA" || f["value"] != "HazardousWaste" || f["outgoing"] != true {
		t.Errorf("fact = %v", f)
	}
	code, _ = doJSON(t, "GET", ts.URL+"/api/v1/snippet?user=alice", nil)
	if code != http.StatusBadRequest {
		t.Errorf("missing concept: %d", code)
	}
}

func TestRankedQuery(t *testing.T) {
	ts := newTestServer(t)
	seedCommunity(t, ts.URL)

	code, out := doJSON(t, "POST", ts.URL+"/api/v1/query", map[string]any{
		"user":  "alice",
		"sesql": `SELECT elem_name FROM elem_contained WHERE landfill_name = 'a'`,
		"rank":  true,
	})
	if code != http.StatusOK {
		t.Fatalf("ranked query: %d %v", code, out)
	}
	rows := out["rows"].([]any)
	scores := out["scores"].([]any)
	if len(rows) != len(scores) {
		t.Fatalf("rows/scores mismatch: %d vs %d", len(rows), len(scores))
	}
	// Mercury (alice knows it) must rank first with a positive score.
	first := rows[0].([]any)
	if first[0] != "Mercury" {
		t.Errorf("first row = %v", first)
	}
	if scores[0].(float64) <= 0 {
		t.Errorf("first score = %v", scores[0])
	}
	for i := 1; i < len(scores); i++ {
		if scores[i].(float64) > scores[i-1].(float64) {
			t.Errorf("scores not descending: %v", scores)
		}
	}
}
