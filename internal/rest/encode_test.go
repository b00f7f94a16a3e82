package rest

// The query answer's one encoder against encoding/json: every byte the
// handler writes for a result must be what json.NewEncoder(w).Encode
// writes for the same object, and a cache hit must write the miss's bytes
// but for its own serving stats.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"regexp"
	"testing"

	"crosse/internal/sqlexec"
	"crosse/internal/sqlval"
)

// resultJSON is the reference model of a query answer: the object whose
// encoding/json encoding the handler's bytes must equal.
type resultJSON struct {
	Columns         []string   `json:"columns"`
	Rows            [][]string `json:"rows"`
	Stats           *statsJSON `json:"stats,omitempty"`
	Scores          []float64  `json:"scores,omitempty"`
	DegradedSources []string   `json:"degraded_sources,omitempty"`
}

// referenceBody is what json.NewEncoder(w).Encode writes for the answer.
func referenceBody(t *testing.T, res *sqlexec.Result, st statsJSON, scores []float64) []byte {
	t.Helper()
	out := resultJSON{Columns: res.Columns, Rows: make([][]string, len(res.Rows)), Stats: &st,
		Scores: scores, DegradedSources: res.SkippedSources}
	for i, row := range res.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		out.Rows[i] = cells
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(out); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// encodedBody is what the handler writes for the answer.
func encodedBody(t *testing.T, res *sqlexec.Result, st statsJSON, scores []float64) []byte {
	t.Helper()
	tail, err := resultTail(scores, res.SkippedSources)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	writeResult(rec, appendResultHead(takeBody(), res), &st, tail)
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	return rec.Body.Bytes()
}

func TestResultEncodingMatchesEncodingJSON(t *testing.T) {
	s, f, i, b := sqlval.NewString, sqlval.NewFloat, sqlval.NewInt, sqlval.NewBool
	cells := []sqlval.Value{
		s("<a href='x'>&amp;</a>"), s(`say "hi"`), s(`C:\path\`), s("\x00\x01\b\f\n\r\t\x1f\x7f"),
		s("line\u2028sep\u2029para"), s("bad \xff utf8 \xc3"), s("\xed\xa0\x80"), s("héllo 日本 🙂"), s(""),
		f(math.NaN()), f(math.Inf(1)), f(math.Inf(-1)), f(math.Copysign(0, -1)), f(1e21), f(1e-7), f(2.5),
		i(math.MinInt64), i(math.MaxInt64), i(0), b(true), b(false), sqlval.Null,
	}
	var rows [][]sqlval.Value
	for k := 0; k < len(cells); k += 3 {
		rows = append(rows, cells[k:min(k+3, len(cells))])
	}
	full := statsJSON{ParseMicros: 3, BaseSQLMicros: 10, BaseRows: 4, FinalRows: 2,
		SPARQLQueries: []string{"SELECT ?x WHERE { ?x <p> \"<&>\" }"}, ContextHits: 1,
		FinalSQL: "SELECT a FROM t WHERE b < 3 && c > 'x'", SkippedSources: []string{"remote"},
		ParallelFallback: "sparql: serial", ElapsedMicros: 1234, CacheHit: true}
	cases := []struct {
		name   string
		res    *sqlexec.Result
		st     statsJSON
		scores []float64
	}{
		{"cells", &sqlexec.Result{Columns: []string{"a<b", "c&d", `"e"`}, Rows: rows}, statsJSON{ElapsedMicros: 7}, nil},
		{"empty", &sqlexec.Result{Columns: []string{"x"}, Rows: nil}, statsJSON{}, nil},
		{"no columns", &sqlexec.Result{Rows: [][]sqlval.Value{{}, {}}}, statsJSON{}, nil},
		{"ranked", &sqlexec.Result{Columns: []string{"x"}, Rows: [][]sqlval.Value{{s("a")}, {s("b")}, {s("c")}, {s("d")}}},
			full, []float64{3, 1.5, 1e21, 1e-7}},
		{"degraded", &sqlexec.Result{Columns: []string{"x"}, Rows: [][]sqlval.Value{{i(1)}}, SkippedSources: []string{"db<1>", "db&2"}},
			full, nil},
		{"ranked and degraded", &sqlexec.Result{Columns: []string{"x"}, Rows: [][]sqlval.Value{{i(1)}}, SkippedSources: []string{"r"}},
			statsJSON{}, []float64{0}},
	}
	for _, c := range cases {
		want := referenceBody(t, c.res, c.st, c.scores)
		if got := encodedBody(t, c.res, c.st, c.scores); !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %q\nwant %q", c.name, got, want)
		}
	}

	// Random bytes, mostly the ones encoding/json treats specially.
	rng := rand.New(rand.NewSource(11))
	special := []string{"<", ">", "&", `"`, `\`, "\x00", "\x1f", "\x7f", "\u2028", "\u2029", "\xff", "\xe2\x80", "é", "🙂", "a"}
	for n := 0; n < 2000; n++ {
		var sb bytes.Buffer
		for k := rng.Intn(12); k > 0; k-- {
			if rng.Intn(3) == 0 {
				sb.WriteByte(byte(rng.Intn(256)))
			} else {
				sb.WriteString(special[rng.Intn(len(special))])
			}
		}
		res := &sqlexec.Result{Columns: []string{sb.String()}, Rows: [][]sqlval.Value{{s(sb.String())}}}
		want := referenceBody(t, res, statsJSON{}, nil)
		if got := encodedBody(t, res, statsJSON{}, nil); !bytes.Equal(got, want) {
			t.Fatalf("cell %q:\n got %q\nwant %q", sb.String(), got, want)
		}
	}
}

// servingStats matches the two per-request fields of an answer's stats.
var servingStats = regexp.MustCompile(`"elapsed_us":\d+,"cache_hit":(true|false)`)

// A hit writes the cached answer: the miss's bytes with only its own
// elapsed_us and cache_hit, for plain, ranked and stats-carrying requests.
func TestCacheHitBodyEqualsMiss(t *testing.T) {
	ts, _ := newV1Server(t, 0, 0)
	resp := postJSON(t, ts.URL+"/api/v1/users", `{"name":"alice"}`)
	resp.Body.Close()
	for _, opts := range []string{``, `,"rank":true`, `,"stats":true`} {
		body := fmt.Sprintf(`{"user":"alice","sesql":"SELECT elem_name, landfill_name FROM elem_contained"%s}`, opts)
		read := func() []byte {
			t.Helper()
			resp := postJSON(t, ts.URL+"/api/v1/query", body)
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != 200 {
				t.Fatalf("%s: %d %s", body, resp.StatusCode, buf.Bytes())
			}
			return buf.Bytes()
		}
		miss, hit := read(), read()
		if !bytes.Contains(miss, []byte(`"cache_hit":false`)) || !bytes.Contains(hit, []byte(`"cache_hit":true`)) {
			t.Fatalf("%s: want a miss then a hit:\n%s\n%s", body, miss, hit)
		}
		const mask = `"elapsed_us":0,"cache_hit":false`
		if m, h := servingStats.ReplaceAll(miss, []byte(mask)), servingStats.ReplaceAll(hit, []byte(mask)); !bytes.Equal(m, h) {
			t.Errorf("%s: hit differs from miss beyond the serving stats:\n miss %s\n  hit %s", body, miss, hit)
		}
	}
}
