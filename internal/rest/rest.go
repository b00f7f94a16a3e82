// Package rest exposes the CroSSE platform over HTTP/JSON. The paper's
// deployment integrates the main platform and the semantic platform
// "by means of RESTful APIs" (Sec. I-A); this package is that surface:
// user management, semantic tagging (the three annotation scenarios),
// knowledge exploration and import, stored queries, and SESQL execution.
//
// The public surface is versioned under /api/v1/... and wrapped by the
// serving tier (internal/serve): per-endpoint request metrics, an
// epoch-keyed enriched-result cache, and admission control on the query
// endpoints; see docs/API.md for the contract.
package rest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"crosse/internal/core"
	"crosse/internal/fdw"
	"crosse/internal/kb"
	"crosse/internal/preview"
	"crosse/internal/rdf"
	"crosse/internal/recommend"
	"crosse/internal/serve"
	"crosse/internal/sqlexec"
	"crosse/internal/sqlval"
)

// Server serves the CroSSE REST API.
type Server struct {
	enricher *core.Enricher
	// mutator is the platform mutation path. Reads go straight to the
	// enricher's platform; every handler that changes platform state goes
	// through here so a journal-backed server write-ahead-logs each
	// mutation before acknowledging it.
	mutator core.Mutator
	// journal, when set, backs /api/v1/admin/wal and /api/v1/admin/compact.
	journal *core.Journal
	// health, when set, backs GET /api/v1/admin/sources and the per-source
	// circuit summary in GET /healthz and /api/v1/metrics.
	health *fdw.Health

	// metrics records per-endpoint request counts, latency histograms and
	// in-flight gauges; always on (the overhead is a few atomics).
	metrics *serve.Metrics
	// cache, when set, memoises enriched results keyed on (user, query,
	// options, view epoch, schema epoch). Nil disables result caching.
	cache *serve.Cache
	// limiter, when set, admission-controls the query-execution endpoints.
	// Nil admits everything.
	limiter *serve.Limiter
}

// NewServer wraps an Enricher (which carries the databank, the semantic
// platform and the resource mapping). Mutations apply directly to the
// platform until SetJournal routes them through a write-ahead log.
func NewServer(e *core.Enricher) *Server {
	return &Server{enricher: e, mutator: e.Platform, metrics: serve.NewMetrics()}
}

// SetJournal routes every platform mutation through the journal's logged
// path and enables the WAL admin endpoints.
func (s *Server) SetJournal(j *core.Journal) {
	s.journal = j
	s.mutator = j
}

// SetHealth exposes the remote-source health registry via
// GET /api/v1/admin/sources and folds its circuit summary into
// GET /healthz and GET /api/v1/metrics.
func (s *Server) SetHealth(h *fdw.Health) { s.health = h }

// SetResultCache installs the enriched-result cache. Nil (the default)
// disables result caching; plan caching inside the enricher is separate.
func (s *Server) SetResultCache(c *serve.Cache) { s.cache = c }

// SetAdmission installs the admission controller guarding the
// query-execution endpoints. Nil (the default) admits everything.
func (s *Server) SetAdmission(l *serve.Limiter) { s.limiter = l }

// SetLogf is a no-op: the server's only operational notice was the
// legacy-alias deprecation warning, which went with the aliases. The
// method stays because benchmark/fixture.go, which a PR may not edit
// together with other code, still calls it.
func (s *Server) SetLogf(func(format string, args ...any)) {}

// Handler returns the API routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(method, path string, h http.HandlerFunc) {
		name := method + " " + path
		mux.HandleFunc(name, s.instrument(name, h))
	}

	route("GET", "/api/v1/users", s.listUsers)
	route("POST", "/api/v1/users", s.createUser)
	route("GET", "/api/v1/statements", s.listStatements)
	route("POST", "/api/v1/statements", s.createStatement)
	route("POST", "/api/v1/statements/{id}/import", s.importStatement)
	route("DELETE", "/api/v1/statements/{id}", s.retractStatement)
	route("GET", "/api/v1/queries", s.listQueries)
	route("POST", "/api/v1/queries", s.registerQuery)
	route("POST", "/api/v1/query", s.admit(s.sesqlQuery))
	route("POST", "/api/v1/sparql", s.admit(s.sparqlQuery))
	route("GET", "/api/v1/tables", s.listTables)
	route("GET", "/api/v1/peers", s.listPeers)
	route("GET", "/api/v1/recommendations", s.listRecommendations)
	route("GET", "/api/v1/snippet", s.snippet)
	route("GET", "/api/v1/vocabulary", s.vocabulary)
	route("POST", "/api/v1/vocabulary", s.declare)
	route("GET", "/api/v1/kb.dot", s.kbDOT)
	route("GET", "/api/v1/admin/snapshot", s.downloadSnapshot)
	route("GET", "/api/v1/admin/wal", s.walStatus)
	route("POST", "/api/v1/admin/compact", s.compact)
	route("GET", "/api/v1/admin/sources", s.listSources)

	route("GET", "/api/v1/metrics", s.metricsSnapshot)
	// The liveness probe predates the versioned surface and stays put.
	route("GET", "/healthz", s.healthz)
	return mux
}

// instrument wraps a handler with request metrics under the endpoint's
// method + pattern label.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		done := s.metrics.Begin(name)
		sw := &statusWriter{ResponseWriter: w}
		defer func() { done(sw.status) }()
		h(sw, r)
	}
}

// admit guards a handler behind the admission controller: saturation
// yields a typed 429 (or 503 if the client's context dies while queued)
// instead of unbounded concurrency.
func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.limiter != nil {
			if err := s.limiter.Acquire(r.Context()); err != nil {
				writeError(w, err)
				return
			}
			defer s.limiter.Release()
		}
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func readJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// --- users ---

func (s *Server) listUsers(w http.ResponseWriter, r *http.Request) {
	p := parsePage(r)
	users, total := slicePage(s.enricher.Platform.Users(), p)
	writeJSON(w, http.StatusOK, listEnvelope("users", users, p, total))
}

func (s *Server) createUser(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name string `json:"name"`
	}
	if err := readJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if err := s.mutator.RegisterUser(req.Name); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"name": req.Name})
}

// --- statements (semantic tagging) ---

// statementJSON is the wire form of a reified statement.
type statementJSON struct {
	ID        string         `json:"id"`
	Subject   string         `json:"subject"`
	Property  string         `json:"property"`
	Object    string         `json:"object"`
	ObjectLit bool           `json:"object_literal,omitempty"`
	Owner     string         `json:"owner"`
	Believers []string       `json:"believers"`
	Ref       *referenceJSON `json:"ref,omitempty"`
}

type referenceJSON struct {
	Title  string `json:"title,omitempty"`
	Author string `json:"author,omitempty"`
	Link   string `json:"link,omitempty"`
	File   string `json:"file,omitempty"`
}

func toStatementJSON(st *kb.Statement) statementJSON {
	out := statementJSON{
		ID:        st.ID,
		Subject:   st.Triple.S.Value,
		Property:  st.Triple.P.Value,
		Object:    st.Triple.O.Value,
		ObjectLit: st.Triple.O.IsLiteral(),
		Owner:     st.Owner,
		Believers: st.Believers(),
	}
	if st.Ref != nil {
		out.Ref = &referenceJSON{Title: st.Ref.Title, Author: st.Ref.Author, Link: st.Ref.Link, File: st.Ref.File}
	}
	return out
}

func (s *Server) listStatements(w http.ResponseWriter, r *http.Request) {
	owner := r.URL.Query().Get("owner")
	property := r.URL.Query().Get("property")
	sts := s.enricher.Platform.Explore(func(st *kb.Statement) bool {
		if owner != "" && st.Owner != owner {
			return false
		}
		if property != "" && !strings.HasSuffix(st.Triple.P.Value, property) {
			return false
		}
		return true
	})
	p := parsePage(r)
	paged, total := slicePage(sts, p)
	out := make([]statementJSON, len(paged))
	for i, st := range paged {
		out[i] = toStatementJSON(st)
	}
	writeJSON(w, http.StatusOK, listEnvelope("statements", out, p, total))
}

func (s *Server) createStatement(w http.ResponseWriter, r *http.Request) {
	var req struct {
		User       string         `json:"user"`
		Subject    string         `json:"subject"`
		Property   string         `json:"property"`
		Object     string         `json:"object"`
		ObjectLit  bool           `json:"object_literal"`
		Integrated bool           `json:"integrated"`
		Ref        *referenceJSON `json:"ref"`
	}
	if err := readJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.Subject == "" || req.Property == "" || req.Object == "" {
		writeError(w, fmt.Errorf("rest: subject, property and object are required"))
		return
	}
	m := s.enricher.Mapping
	var obj rdf.Term
	if req.ObjectLit {
		obj = rdf.NewLiteral(req.Object)
	} else {
		obj = m.PropertyIRI(req.Object) // mint under the default prefix
	}
	t := rdf.Triple{S: m.PropertyIRI(req.Subject), P: m.PropertyIRI(req.Property), O: obj}
	var opts []kb.InsertOption
	if req.Integrated {
		opts = append(opts, kb.Integrated())
	}
	if req.Ref != nil {
		opts = append(opts, kb.WithReference(kb.Reference{
			Title: req.Ref.Title, Author: req.Ref.Author, Link: req.Ref.Link, File: req.Ref.File,
		}))
	}
	id, err := s.mutator.Insert(req.User, t, opts...)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"id": id})
}

func (s *Server) importStatement(w http.ResponseWriter, r *http.Request) {
	var req struct {
		User string `json:"user"`
	}
	if err := readJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if err := s.mutator.Import(req.User, r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "imported"})
}

func (s *Server) retractStatement(w http.ResponseWriter, r *http.Request) {
	user := r.URL.Query().Get("user")
	if user == "" {
		writeError(w, fmt.Errorf("rest: user query parameter required"))
		return
	}
	if err := s.mutator.Retract(user, r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "retracted"})
}

// --- stored queries ---

func (s *Server) listQueries(w http.ResponseWriter, r *http.Request) {
	user := r.URL.Query().Get("user")
	qs := s.enricher.Platform.Queries(user)
	p := parsePage(r)
	paged, total := slicePage(qs, p)
	type qj struct {
		Name  string `json:"name"`
		Owner string `json:"owner,omitempty"`
		Text  string `json:"text"`
	}
	out := make([]qj, len(paged))
	for i, q := range paged {
		out[i] = qj{Name: q.Name, Owner: q.Owner, Text: q.Text}
	}
	writeJSON(w, http.StatusOK, listEnvelope("queries", out, p, total))
}

func (s *Server) registerQuery(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Owner string `json:"owner"`
		Name  string `json:"name"`
		Text  string `json:"text"`
	}
	if err := readJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if err := s.mutator.RegisterQuery(req.Owner, req.Name, req.Text); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"name": req.Name})
}

// --- query execution ---

// A /api/v1/query answer is the JSON object
//
//	{"columns":[…],"rows":[[…],…],"stats":{…},"scores":[…],"degraded_sources":[…]}
//
// written once, straight from the result's values (appendResultHead):
// every cell is the string sqlval.Value.String renders. Scores holds
// per-row contextual relevance when ranking was requested; degraded
// sources names remote sources that were down and skipped under
// partial-results degradation — the result is complete except for their
// rows. Both are omitted when empty; stats is always present. The bytes
// are those encoding/json's Encoder writes for the same object (HTML-safe
// escaping, trailing newline).

type statsJSON struct {
	// ElapsedMicros and CacheHit are per-request serving stats, attached
	// to every success response: end-to-end handler latency and whether
	// the enriched-result cache answered.
	ElapsedMicros int64 `json:"elapsed_us"`
	CacheHit      bool  `json:"cache_hit"`

	// The per-stage pipeline breakdown (Fig. 6), present when the request
	// asked for stats.
	ParseMicros    int64    `json:"parse_us"`
	BaseSQLMicros  int64    `json:"base_sql_us"`
	SPARQLMicros   int64    `json:"sparql_us"`
	JoinMicros     int64    `json:"join_us"`
	FinalSQLMicros int64    `json:"final_sql_us"`
	BaseRows       int      `json:"base_rows"`
	FinalRows      int      `json:"final_rows"`
	SPARQLQueries  []string `json:"sparql_queries,omitempty"`
	ContextHits    int      `json:"context_hits,omitempty"`
	FinalSQL       string   `json:"final_sql,omitempty"`
	SkippedSources []string `json:"skipped_sources,omitempty"`
	// ParallelFallback names why SPARQL queries ran serial instead of on
	// the morsel-driven parallel path ("sparql: ..." entries, "; "-joined).
	// The base SQL always runs serially and has no entry. Omitted when
	// every SPARQL query parallelised.
	ParallelFallback string `json:"parallel_fallback,omitempty"`
}

// statsOf is the pipeline breakdown of a run; the serving fields are left
// for the response to set.
func statsOf(stats *core.Stats) statsJSON {
	return statsJSON{
		ParseMicros:      stats.Parse.Microseconds(),
		BaseSQLMicros:    stats.BaseSQL.Microseconds(),
		SPARQLMicros:     stats.SPARQL.Microseconds(),
		JoinMicros:       stats.Join.Microseconds(),
		FinalSQLMicros:   stats.FinalSQL.Microseconds(),
		BaseRows:         stats.BaseRows,
		FinalRows:        stats.FinalRows,
		SPARQLQueries:    stats.SPARQLQueries,
		ContextHits:      stats.ContextHits,
		FinalSQL:         stats.FinalSQLText,
		SkippedSources:   stats.SkippedSources,
		ParallelFallback: stats.ParallelFallback,
	}
}

// appendResultHead appends the part of a query answer before its stats:
// `{"columns":[…],"rows":[…]`.
func appendResultHead(dst []byte, res *sqlexec.Result) []byte {
	dst = append(dst, `{"columns":`...)
	dst = appendStrings(dst, res.Columns)
	dst = append(dst, `,"rows":[`...)
	for i, row := range res.Rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for j, v := range row {
			if j > 0 {
				dst = append(dst, ',')
			}
			if v.Type() == sqlval.TypeString {
				dst = appendJSONString(dst, v.Str())
				continue
			}
			// Every other rendering is ASCII that needs no escape.
			dst = append(dst, '"')
			dst = v.AppendText(dst)
			dst = append(dst, '"')
		}
		dst = append(dst, ']')
	}
	return append(dst, ']')
}

// closeResult is the part of an answer after its stats when it has no
// scores and no degraded sources.
var closeResult = []byte("}\n")

// resultTail returns the part of a query answer after its stats: the
// scores and degraded sources when there are any, the closing brace and
// the newline.
func resultTail(scores []float64, degraded []string) ([]byte, error) {
	if len(scores) == 0 && len(degraded) == 0 {
		return closeResult, nil
	}
	var dst []byte
	if len(scores) > 0 {
		b, err := json.Marshal(scores)
		if err != nil {
			return nil, err
		}
		dst = append(append(dst, `,"scores":`...), b...)
	}
	if len(degraded) > 0 {
		dst = appendStrings(append(dst, `,"degraded_sources":`...), degraded)
	}
	return append(dst, closeResult...), nil
}

// appendStrings appends a JSON array of strings; a nil slice is null.
func appendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, s)
	}
	return append(dst, ']')
}

// appendJSONString appends s as a JSON string the way encoding/json
// writes it: `"` and `\` escaped, control bytes as \b \f \n \r \t or
// \u00XX, <, > and & as \u003c \u003e \u0026, U+2028 and U+2029
// escaped, and each byte of invalid UTF-8 as \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// bodyPool recycles response buffers; one past maxPooledBody is dropped
// rather than pinned.
var bodyPool sync.Pool

const maxPooledBody = 4 << 20

// takeBody returns an empty response buffer, pooled when one is free.
func takeBody() []byte {
	if b, ok := bodyPool.Get().(*[]byte); ok {
		return (*b)[:0]
	}
	return nil
}

// writeResult completes a query answer whose head b holds — the stats,
// then tail — writes it and pools b.
func writeResult(w http.ResponseWriter, b []byte, st *statsJSON, tail []byte) {
	b = appendStats(b, st)
	b = append(b, tail...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
	if cap(b) <= maxPooledBody {
		bodyPool.Put(&b)
	}
}

// appendStats appends `,"stats":` and the stats object.
func appendStats(dst []byte, st *statsJSON) []byte {
	b, _ := json.Marshal(st) // a struct of numbers, strings and bools
	return append(append(dst, `,"stats":`...), b...)
}

// cacheKey builds the enriched-result cache key for a request. The view
// epoch is read BEFORE evaluation: if a mutation lands during the query,
// the entry stays keyed to the pre-mutation epoch and is simply never hit
// again, rather than serving a pre-mutation result under the post-mutation
// epoch forever.
func (s *Server) cacheKey(user, query, lang, opts string) serve.Key {
	return serve.Key{
		User:        user,
		Query:       query,
		Lang:        lang,
		Opts:        fmt.Sprintf("%s&exec=%+v", opts, s.enricher.ExecOptions()),
		ViewEpoch:   s.enricher.Platform.ViewEpoch(user),
		SchemaEpoch: s.enricher.DB.Catalog().SchemaEpoch(),
	}
}

// cachedResult is the cache entry: a query answer's bytes before and
// after its stats (appendResultHead, resultTail), which the cache charges
// by their length, and the pipeline stats of the original run.
type cachedResult struct {
	head, tail []byte
	stats      statsJSON // original run's breakdown; per-request fields unset
}

func (s *Server) sesqlQuery(w http.ResponseWriter, r *http.Request) {
	var req struct {
		User  string `json:"user"`
		SESQL string `json:"sesql"`
		Stats bool   `json:"stats"`
		// Rank applies context-aware ranking (Sec. I-B.c): rows the user's
		// KB knows most about come first, with relevance scores attached.
		Rank bool `json:"rank"`
	}
	if err := readJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	start := time.Now()

	var key serve.Key
	if s.cache != nil {
		key = s.cacheKey(req.User, req.SESQL, "sesql", fmt.Sprintf("stats=%t&rank=%t", req.Stats, req.Rank))
		if v, ok := s.cache.Get(key); ok {
			ent := v.(cachedResult)
			st := ent.stats
			st.CacheHit = true
			st.ElapsedMicros = time.Since(start).Microseconds()
			writeResult(w, append(takeBody(), ent.head...), &st, ent.tail)
			return
		}
	}

	res, stats, err := s.enricher.QueryStatsContext(r.Context(), req.User, req.SESQL)
	if err != nil {
		writeError(w, err)
		return
	}
	var st statsJSON
	if req.Stats {
		st = statsOf(stats)
	}
	var scores []float64
	if req.Rank {
		view, err := s.enricher.Platform.View(req.User)
		if err != nil {
			writeError(w, err)
			return
		}
		ranked := preview.Rank(res, view, s.enricher.Mapping)
		res, scores = ranked.Result, ranked.Scores
	}
	tail, err := resultTail(scores, res.SkippedSources)
	if err != nil {
		writeError(w, err)
		return
	}
	s.finishQuery(w, res, tail, st, key, start)
}

// finishQuery encodes a fresh (uncached) query result, stores its bytes in
// the result cache when eligible, attaches the serving stats and writes
// it. Degraded results are never cached: the skipped source may come back
// at any moment, and epochs do not cover circuit state.
func (s *Server) finishQuery(w http.ResponseWriter, res *sqlexec.Result, tail []byte, st statsJSON, key serve.Key, start time.Time) {
	head := appendResultHead(takeBody(), res)
	if s.cache != nil && len(res.SkippedSources) == 0 {
		ent := cachedResult{head: bytes.Clone(head), tail: tail, stats: st}
		s.cache.Put(key, ent, int64(len(ent.head)+len(ent.tail)))
	}
	st.ElapsedMicros = time.Since(start).Microseconds()
	writeResult(w, head, &st, tail)
}

func (s *Server) sparqlQuery(w http.ResponseWriter, r *http.Request) {
	var req struct {
		User  string `json:"user"`
		Query string `json:"query"`
	}
	if err := readJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	start := time.Now()

	var key serve.Key
	if s.cache != nil {
		key = s.cacheKey(req.User, req.Query, "sparql", "")
		if v, ok := s.cache.Get(key); ok {
			ent := v.(sparqlResultJSON)
			st := *ent.Stats
			st.CacheHit = true
			st.ElapsedMicros = time.Since(start).Microseconds()
			ent.Stats = &st
			writeJSON(w, http.StatusOK, ent)
			return
		}
	}

	res, err := s.enricher.SPARQL(req.User, req.Query)
	if err != nil {
		writeError(w, err)
		return
	}
	out := sparqlResultJSON{Vars: res.Vars, Bool: res.Bool, Bindings: make([]map[string]string, len(res.Bindings))}
	size := int64(64)
	for i, b := range res.Bindings {
		row := map[string]string{}
		for v, t := range b {
			row[v] = t.Value
			size += int64(len(v)+len(t.Value)) + 32
		}
		out.Bindings[i] = row
	}
	st := statsJSON{}
	if res.ParallelFallback != "" {
		st.ParallelFallback = "sparql: " + res.ParallelFallback
	}
	if s.cache != nil {
		ent, cached := out, st // the entry keeps its own copy: st still changes below
		ent.Stats = &cached
		s.cache.Put(key, ent, size)
	}
	st.ElapsedMicros = time.Since(start).Microseconds()
	out.Stats = &st
	writeJSON(w, http.StatusOK, out)
}

// sparqlResultJSON is the wire form of a direct SPARQL evaluation.
type sparqlResultJSON struct {
	Vars     []string            `json:"vars"`
	Bindings []map[string]string `json:"bindings"`
	Bool     bool                `json:"bool"`
	Stats    *statsJSON          `json:"stats,omitempty"`
}

// --- peer networking and previews (the Sec. I-B vision services) ---

func (s *Server) listPeers(w http.ResponseWriter, r *http.Request) {
	user := r.URL.Query().Get("user")
	if user == "" {
		writeError(w, fmt.Errorf("rest: user query parameter required"))
		return
	}
	k, _ := strconv.Atoi(r.URL.Query().Get("k"))
	var peers []recommend.PeerScore
	switch r.URL.Query().Get("by") {
	case "interests":
		peers = recommend.PeersByInterests(s.enricher.Platform, user, k)
	case "activity":
		peers = recommend.PeersByActivity(s.enricher.Activity, user, k)
	default:
		peers = recommend.PeersByBeliefs(s.enricher.Platform, user, k)
	}
	type pj struct {
		User  string  `json:"user"`
		Score float64 `json:"score"`
	}
	out := make([]pj, len(peers))
	for i, p := range peers {
		out[i] = pj{User: p.User, Score: p.Score}
	}
	writeJSON(w, http.StatusOK, map[string]any{"peers": out})
}

func (s *Server) listRecommendations(w http.ResponseWriter, r *http.Request) {
	user := r.URL.Query().Get("user")
	if user == "" {
		writeError(w, fmt.Errorf("rest: user query parameter required"))
		return
	}
	k, _ := strconv.Atoi(r.URL.Query().Get("k"))
	recs := recommend.RecommendStatements(s.enricher.Platform, user, k)
	p := parsePage(r)
	paged, total := slicePage(recs, p)
	type rj struct {
		Statement statementJSON `json:"statement"`
		Score     float64       `json:"score"`
		Via       []string      `json:"via"`
	}
	out := make([]rj, len(paged))
	for i, rec := range paged {
		out[i] = rj{Statement: toStatementJSON(rec.Statement), Score: rec.Score, Via: rec.Via}
	}
	writeJSON(w, http.StatusOK, listEnvelope("recommendations", out, p, total))
}

func (s *Server) snippet(w http.ResponseWriter, r *http.Request) {
	user := r.URL.Query().Get("user")
	concept := r.URL.Query().Get("concept")
	if user == "" || concept == "" {
		writeError(w, fmt.Errorf("rest: user and concept query parameters required"))
		return
	}
	max, _ := strconv.Atoi(r.URL.Query().Get("max"))
	view, err := s.enricher.Platform.View(user)
	if err != nil {
		writeError(w, err)
		return
	}
	facts := preview.Snippet(view, s.enricher.Mapping, concept, max)
	type fj struct {
		Property string `json:"property"`
		Value    string `json:"value"`
		Outgoing bool   `json:"outgoing"`
	}
	out := make([]fj, len(facts))
	for i, f := range facts {
		out[i] = fj{Property: f.Property, Value: f.Value, Outgoing: f.Outgoing}
	}
	writeJSON(w, http.StatusOK, map[string]any{"concept": concept, "facts": out})
}

// vocabulary lists suggested annotation properties and declared terms —
// the data behind the paper's "suggested properties" annotation UI.
func (s *Server) vocabulary(w http.ResponseWriter, r *http.Request) {
	p := s.enricher.Platform
	type dj struct {
		Name  string `json:"name"`
		Owner string `json:"owner"`
	}
	toDJ := func(ds []kb.Declaration) []dj {
		out := make([]dj, len(ds))
		for i, d := range ds {
			out[i] = dj{Name: d.Name, Owner: d.Owner}
		}
		return out
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"suggested_properties": p.SuggestedProperties(),
		"resources":            toDJ(p.Declarations(kb.DeclResource)),
		"properties":           toDJ(p.Declarations(kb.DeclProperty)),
	})
}

// declare registers a new user-declared resource or property (Fig. 4
// userResource / userProperty edges).
func (s *Server) declare(w http.ResponseWriter, r *http.Request) {
	var req struct {
		User string `json:"user"`
		Name string `json:"name"`
		Kind string `json:"kind"` // "resource" | "property"
	}
	if err := readJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	name := req.Name
	if !strings.Contains(name, "://") {
		name = s.enricher.Mapping.PropertyIRI(name).Value
	}
	var err error
	switch req.Kind {
	case "property":
		err = s.mutator.DeclareProperty(req.User, name)
	case "resource", "":
		err = s.mutator.DeclareResource(req.User, name)
	default:
		err = fmt.Errorf("rest: kind must be resource or property")
	}
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"name": name})
}

// kbDOT streams the user's knowledge base as Graphviz DOT (the paper's
// graph-based visualization).
func (s *Server) kbDOT(w http.ResponseWriter, r *http.Request) {
	user := r.URL.Query().Get("user")
	if user == "" {
		writeError(w, fmt.Errorf("rest: user query parameter required"))
		return
	}
	view, err := s.enricher.Platform.View(user)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/vnd.graphviz")
	if err := kb.WriteDOT(w, view, user+"-kb"); err != nil {
		// Headers already sent; nothing more to do.
		return
	}
}

// --- serving-tier metrics ---

// metricsSnapshot reports the serving tier's observable state: per-endpoint
// request counts and latency quantiles, result-cache and plan-cache
// counters (compiled plans, plus the context-extract memo), admission-control
// state, remote-source circuits, and the WAL position.
func (s *Server) metricsSnapshot(w http.ResponseWriter, r *http.Request) {
	hits, misses := s.enricher.QueryCacheStats()
	ctxHits, ctxMisses := s.enricher.ContextCacheStats()
	out := map[string]any{
		"endpoints": s.metrics.Snapshot(),
		"plan_cache": map[string]int{"hits": hits, "misses": misses,
			"context_hits": ctxHits, "context_misses": ctxMisses},
	}
	if s.cache != nil {
		out["result_cache"] = s.cache.Stats()
	}
	if s.limiter != nil {
		out["admission"] = s.limiter.Stats()
	}
	if s.health != nil {
		out["sources"] = s.health.Snapshot()
	}
	if s.journal != nil {
		out["wal"] = s.journal.Status()
	}
	writeJSON(w, http.StatusOK, out)
}

// --- durability (platform image backup, write-ahead log) ---

// downloadSnapshot streams the whole platform as a binary image (databank
// SQL dump + semantic-platform snapshot): the backup/off-site-copy path.
// A backup is restored through a journal directory: placed alone as
// platform.img in an empty directory, it is what crosse-server -wal on
// that directory (core.OpenJournal) boots from. The image is built
// in memory first so a dump/snapshot failure yields a 500, not a 200 with
// an empty or truncated body; a network failure mid-stream is detected by
// the client via the image's trailing checksum.
func (s *Server) downloadSnapshot(w http.ResponseWriter, r *http.Request) {
	var img bytes.Buffer
	if err := core.WriteImage(&img, s.enricher.DB, s.enricher.Platform); err != nil {
		writeErrorCode(w, http.StatusInternalServerError, codeInternal, err, nil)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="crosse-platform.img"`)
	w.Header().Set("Content-Length", strconv.Itoa(img.Len()))
	_, _ = w.Write(img.Bytes())
}

// walStatus reports the write-ahead log's position: the image anchor, the
// last appended and last fsync-covered LSNs, size and sync counters.
func (s *Server) walStatus(w http.ResponseWriter, r *http.Request) {
	if s.journal == nil {
		writeErrorCode(w, http.StatusConflict, codeConflict,
			fmt.Errorf("rest: no write-ahead log configured (start the server with -wal)"), nil)
		return
	}
	writeJSON(w, http.StatusOK, s.journal.Status())
}

// compact re-anchors the journal: a fresh platform image at the current
// LSN plus an empty log, reclaiming the replay work of every record the
// image now contains.
func (s *Server) compact(w http.ResponseWriter, r *http.Request) {
	if s.journal == nil {
		writeErrorCode(w, http.StatusConflict, codeConflict,
			fmt.Errorf("rest: no write-ahead log configured (start the server with -wal)"), nil)
		return
	}
	st, err := s.journal.Compact()
	if err != nil {
		writeErrorCode(w, http.StatusInternalServerError, codeInternal, err, nil)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// --- health ---

// healthz is the liveness/readiness probe. 200 means the node accepts
// queries and writes; 503 means the journal is wedged (reads still work,
// writes cannot be acknowledged). Degraded remote sources do not fail the
// probe — the node itself is healthy and can degrade gracefully — but the
// per-source circuit summary is included so callers can distinguish
// "healthy" from "healthy but partial".
func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{"status": "ok"}
	status := http.StatusOK
	if s.journal != nil {
		wal := map[string]any{"wedged": false}
		if err := s.journal.Wedged(); err != nil {
			wal["wedged"] = true
			wal["error"] = err.Error()
			out["status"] = "degraded"
			status = http.StatusServiceUnavailable
		} else {
			wal["lsn"] = s.journal.Status().LSN
		}
		out["wal"] = wal
	}
	if s.health != nil {
		snap := s.health.Snapshot()
		srcs := make([]map[string]any, len(snap))
		healthy := 0
		for i, st := range snap {
			srcs[i] = map[string]any{"name": st.Name, "state": st.State}
			if st.Healthy() {
				healthy++
			}
		}
		out["sources"] = srcs
		if healthy < len(snap) && out["status"] == "ok" {
			out["status"] = "degraded" // still 200: the node serves queries
		}
	}
	writeJSON(w, status, out)
}

// listSources reports the full per-source resilience state: circuit
// position, the error keeping it open, and cumulative request/retry/trip
// counters.
func (s *Server) listSources(w http.ResponseWriter, r *http.Request) {
	if s.health == nil {
		writeErrorCode(w, http.StatusConflict, codeConflict,
			fmt.Errorf("rest: no remote sources configured (start the server with -attach)"), nil)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"sources": s.health.Snapshot()})
}

func (s *Server) listTables(w http.ResponseWriter, r *http.Request) {
	names := s.enricher.DB.Catalog().Names()
	type tableJSON struct {
		Name    string   `json:"name"`
		Columns []string `json:"columns"`
	}
	out := make([]tableJSON, 0, len(names))
	for _, n := range names {
		rel, err := s.enricher.DB.Catalog().Resolve(n)
		if err != nil {
			continue
		}
		out = append(out, tableJSON{Name: n, Columns: rel.Schema().Names()})
	}
	writeJSON(w, http.StatusOK, map[string]any{"tables": out})
}
