package rest

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestVocabularyEndpoints(t *testing.T) {
	ts := newTestServer(t)
	doJSON(t, "POST", ts.URL+"/api/v1/users", map[string]string{"name": "u"})

	// Declare a resource (short name minted under the default prefix).
	code, out := doJSON(t, "POST", ts.URL+"/api/v1/vocabulary", map[string]string{
		"user": "u", "name": "SecondaryRawMaterial", "kind": "resource"})
	if code != http.StatusCreated {
		t.Fatalf("declare resource: %d %v", code, out)
	}
	if !strings.Contains(out["name"].(string), "SecondaryRawMaterial") {
		t.Errorf("minted name = %v", out["name"])
	}
	// Declare a property and use another in a statement.
	code, _ = doJSON(t, "POST", ts.URL+"/api/v1/vocabulary", map[string]string{
		"user": "u", "name": "recoverableFrom", "kind": "property"})
	if code != http.StatusCreated {
		t.Fatalf("declare property: %d", code)
	}
	doJSON(t, "POST", ts.URL+"/api/v1/statements", map[string]any{
		"user": "u", "subject": "Mercury", "property": "dangerLevel",
		"object": "high", "object_literal": true})

	code, out = doJSON(t, "GET", ts.URL+"/api/v1/vocabulary", nil)
	if code != http.StatusOK {
		t.Fatalf("vocabulary: %d", code)
	}
	props := out["suggested_properties"].([]any)
	joined := ""
	for _, p := range props {
		joined += p.(string) + " "
	}
	if !strings.Contains(joined, "recoverableFrom") || !strings.Contains(joined, "dangerLevel") {
		t.Errorf("suggested properties = %v", props)
	}
	res := out["resources"].([]any)
	if len(res) != 1 || res[0].(map[string]any)["owner"] != "u" {
		t.Errorf("resources = %v", res)
	}

	// Bad kind rejected.
	code, _ = doJSON(t, "POST", ts.URL+"/api/v1/vocabulary", map[string]string{
		"user": "u", "name": "x", "kind": "frob"})
	if code != http.StatusBadRequest {
		t.Errorf("bad kind: %d", code)
	}
	// Unknown user: typed kb.ErrUnknownUser → 404.
	code, _ = doJSON(t, "POST", ts.URL+"/api/v1/vocabulary", map[string]string{
		"user": "ghost", "name": "x", "kind": "resource"})
	if code != http.StatusNotFound {
		t.Errorf("ghost declare: %d", code)
	}
}

func TestKBDOTEndpoint(t *testing.T) {
	ts := newTestServer(t)
	doJSON(t, "POST", ts.URL+"/api/v1/users", map[string]string{"name": "u"})
	doJSON(t, "POST", ts.URL+"/api/v1/statements", map[string]any{
		"user": "u", "subject": "Mercury", "property": "isA", "object": "HazardousWaste"})

	resp, err := http.Get(ts.URL + "/api/v1/kb.dot?user=u")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dot: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/vnd.graphviz" {
		t.Errorf("content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	out := string(body)
	if !strings.Contains(out, "digraph") || !strings.Contains(out, "Mercury") {
		t.Errorf("dot body:\n%s", out)
	}
	// Unknown user → 404 JSON error.
	resp2, err := http.Get(ts.URL + "/api/v1/kb.dot?user=ghost")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("ghost dot: %d", resp2.StatusCode)
	}
	// Missing user → 400.
	resp3, err := http.Get(ts.URL + "/api/v1/kb.dot")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("missing user dot: %d", resp3.StatusCode)
	}
}
