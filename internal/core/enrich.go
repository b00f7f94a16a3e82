package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"crosse/internal/engine"
	"crosse/internal/kb"
	"crosse/internal/rdf"
	"crosse/internal/sesql"
	"crosse/internal/sparql"
	"crosse/internal/sqlexec"
	"crosse/internal/sqlparser"
	"crosse/internal/sqlval"
)

// Enricher is the Semantic Query Module: it evaluates SESQL queries for a
// user by combining the main platform database with the user's contextual
// knowledge base.
type Enricher struct {
	DB       *engine.DB   // main platform (relational databank)
	Platform *kb.Platform // semantic platform (users, beliefs, stored queries)
	Mapping  *Mapping     // relational ↔ ontology resource mapping
	// Activity, when non-nil, records which properties each user's
	// enriched queries engage (feeds the peer-discovery services).
	Activity *Activity

	// cache memoises compiled SESQL shapes and SPARQL plans, and context
	// extracts per view epoch. Never nil.
	cache *QueryCache

	// opts configures both executors for every evaluation; see
	// ExecOptions. The zero value is the production configuration.
	opts ExecOptions
}

// New wires an Enricher. A nil mapping gets the default SmartGround one.
// The enricher starts with a default compiled-query cache.
func New(db *engine.DB, platform *kb.Platform, mapping *Mapping) *Enricher {
	if mapping == nil {
		mapping = NewMapping("")
	}
	return &Enricher{DB: db, Platform: platform, Mapping: mapping, cache: NewQueryCache(0)}
}

// SetQueryCache replaces the enricher's compiled-query cache with c, which
// must not be nil. A fresh NewQueryCache(0) before each query makes every
// query cold: it parses, compiles and extracts from scratch. Not safe to
// call concurrently with Query.
func (e *Enricher) SetQueryCache(c *QueryCache) { e.cache = c }

// SetExecOptions replaces the enricher's execution options wholesale. Not
// safe to call concurrently with Query.
func (e *Enricher) SetExecOptions(o ExecOptions) { e.opts = o }

// ExecOptions returns the enricher's current execution options.
func (e *Enricher) ExecOptions() ExecOptions { return e.opts }

// QueryCacheStats reports the cache's cumulative hits and misses.
func (e *Enricher) QueryCacheStats() (hits, misses int) { return e.cache.Stats() }

// ContextCacheStats reports the context-extract memo's cumulative hits and
// misses.
func (e *Enricher) ContextCacheStats() (hits, misses int) { return e.cache.ContextStats() }

// Stats reports per-stage timings and artifacts of one SESQL evaluation —
// the observable counterpart of the Fig. 6 architecture.
type Stats struct {
	Parse    time.Duration // SQP: shape lexing and plan lookup (a miss also parses and compiles)
	BaseSQL  time.Duration // relational query on the main platform
	SPARQL   time.Duration // ontology queries on the user's KB
	Join     time.Duration // JoinManager: combine partial results
	FinalSQL time.Duration // final stage: deferred ORDER BY / LIMIT / OFFSET over the joined rows

	BaseRows  int
	FinalRows int

	BaseSQLText string
	// SPARQLQueries lists the ontology queries that ran; an extract served
	// from the memo ran none and is counted in ContextHits instead.
	SPARQLQueries []string
	ContextHits   int
	// FinalSQLText describes the final stage as Fig. 6's "final query" over
	// a notional sesql_result table. No SQL runs: the stage sorts and slices
	// the joined rows in place. Empty when nothing was deferred.
	FinalSQLText string

	// SkippedSources names remote sources that were down and skipped
	// under partial-results degradation (empty on complete results).
	SkippedSources []string

	// ParallelFallback records why SPARQL queries ran on the serial path
	// instead of morsel-driven parallel execution — stage-prefixed reasons
	// ("sparql: parallelism=1") joined by "; ", deduplicated. Empty when
	// every SPARQL query ran parallel. The base SQL and the final stage
	// always run serially and have no entry.
	ParallelFallback string
}

// addParallelFallback records one SPARQL query's serial-fallback reason,
// deduplicating repeats (a single SESQL evaluation can run many SPARQL
// queries that all decline for the same reason).
func (s *Stats) addParallelFallback(reason string) {
	if reason == "" {
		return
	}
	entry := "sparql: " + reason
	for _, have := range strings.Split(s.ParallelFallback, "; ") {
		if have == entry {
			return
		}
	}
	if s.ParallelFallback != "" {
		s.ParallelFallback += "; "
	}
	s.ParallelFallback += entry
}

// Total returns the end-to-end latency.
func (s *Stats) Total() time.Duration {
	return s.Parse + s.BaseSQL + s.SPARQL + s.Join + s.FinalSQL
}

// Query evaluates a SESQL query in the user's context.
func (e *Enricher) Query(user, text string) (*sqlexec.Result, error) {
	res, _, err := e.QueryStats(user, text)
	return res, err
}

// QueryStats evaluates a SESQL query and reports per-stage statistics.
func (e *Enricher) QueryStats(user, text string) (*sqlexec.Result, *Stats, error) {
	return e.QueryStatsContext(nil, user, text)
}

// QueryStatsContext is QueryStats bounded by ctx: scans over remote
// (context-aware) sources honour the context's deadline and cancellation,
// so a stalled peer cannot hang the query past its deadline. A nil ctx
// behaves like QueryStats.
func (e *Enricher) QueryStatsContext(ctx context.Context, user, text string) (*sqlexec.Result, *Stats, error) {
	st := &Stats{}

	t0 := time.Now()
	sp, lits, late, err := e.shape(text)
	st.Parse = time.Since(t0)
	if err != nil && !late {
		return nil, st, err
	}

	view, verr := e.Platform.View(user)
	if verr != nil {
		return nil, st, verr
	}
	if err != nil {
		return nil, st, err
	}
	q := sp.q
	uc := userCtx{name: user, view: view}
	if len(q.Enrichments) > 0 {
		// Read before the first extract, as rest.cacheKey does: a mutation
		// landing mid-query strands this query's memo entries under the
		// old epoch instead of leaving them stale under the new one.
		uc.epoch = e.Platform.ViewEpoch(user)
	}

	if e.Activity != nil && len(q.Enrichments) > 0 {
		props := make([]string, 0, len(q.Enrichments))
		for _, en := range q.Enrichments {
			props = append(props, e.Mapping.PropertyIRI(en.Property).Value)
		}
		e.Activity.Record(user, props)
	}

	// The shape's plan with this text's literals bound, and the concrete
	// SELECT it runs (the literals spliced back in their source spelling).
	plan := sp.plan.Bind(lits.Vals)
	st.BaseSQLText = sp.baseSQL.Splice(lits.Texts)

	// --- Base SQL: the base rows, materialised once ---
	// Without enrichments they are the answer (the fast path).
	t0 = time.Now()
	res, err := plan.RunContext(ctx)
	st.BaseSQL = time.Since(t0)
	if err != nil {
		if len(q.Enrichments) > 0 {
			err = fmt.Errorf("core: base query: %w", err)
		}
		return nil, st, err
	}
	st.SkippedSources = res.SkippedSources
	st.BaseRows, st.FinalRows = len(res.Rows), len(res.Rows)
	if len(q.Enrichments) == 0 {
		return res, st, nil
	}

	// --- SPARQL: every step's extract (timed per query in extract) ---
	j := &joiner{sp: sp, m: e.Mapping, runs: make([]stepRun, len(sp.steps)), scratch: make([]sqlval.Value, sp.scratch)}
	for i := range sp.steps {
		if j.runs[i], err = e.fetch(&sp.steps[i], lits, uc, st); err != nil {
			return nil, st, err
		}
	}

	// --- JoinManager: one pass over the base rows ---
	t0 = time.Now()
	res.Columns, res.Rows = slices.Clone(sp.headers), j.join(res.Rows)
	st.Join = time.Since(t0)

	// --- Final stage (Fig. 6's last step) ---
	// The paper hands the joined rows to a support database and queries
	// them; here the compiled tail sorts and slices them in place.
	if sp.tail != nil {
		t0 = time.Now()
		st.FinalSQLText = sp.finalSQL
		res.Rows, err = sp.tail.Apply(res.Rows)
		st.FinalSQL = time.Since(t0)
		if err != nil {
			return nil, st, fmt.Errorf("core: final stage: %w", err)
		}
	}
	st.FinalRows = len(res.Rows)
	return res, st, nil
}

// userCtx is one evaluation's handle on the user's context: the KB view
// every extract reads and the view epoch that keys the extract memo.
type userCtx struct {
	name  string
	view  rdf.Graph
	epoch uint64
}

// hiddenCols tracks the extra projections added to the base query so that
// tagged WHERE conditions can be re-evaluated over materialised rows.
type hiddenCols struct {
	alias map[string]string // ColRef.SQL() → hidden column alias
	order []string          // aliases in order of addition
}

// buildBaseQuery clones the parsed SELECT, neutralises tagged conditions
// targeted by WHERE enrichments (they become TRUE — the enrichment applies
// them later against the ontology), and appends hidden projections for the
// columns those conditions reference.
func buildBaseQuery(q *sesql.Query, whereEnr []sesql.Enrichment) (*sqlparser.Select, *hiddenCols, error) {
	sel := *q.Select // shallow copy; Items/Where replaced below
	sel.Items = append([]sqlparser.SelectItem(nil), q.Select.Items...)

	hidden := &hiddenCols{alias: map[string]string{}}
	trueLit := &sqlparser.Literal{Val: sqlval.NewBool(true)}

	for _, en := range whereEnr {
		tag := q.Conds[en.CondID]
		where, n := sesql.ReplaceSubtree(sel.Where, tag.Expr, trueLit)
		if n == 0 {
			return nil, nil, fmt.Errorf("core: condition %s not found in WHERE", en.CondID)
		}
		sel.Where = where

		refs := sqlparser.ColRefs(tag.Expr)
		if en.Kind == sesql.ReplaceVariable {
			attr := parseAttrRef(en.Attr)
			refs = append(refs, attr)
		}
		// For ReplaceConstant the "attribute" is the non-relational
		// constant (e.g. HazardousWaste) — it has no database column, so
		// it must not become a hidden projection.
		constSQL := ""
		if en.Kind == sesql.ReplaceConstant {
			constSQL = parseConstant(en.Attr).SQL()
		}
		for _, cr := range refs {
			key := cr.SQL()
			if key == constSQL {
				continue
			}
			if _, ok := hidden.alias[key]; ok {
				continue
			}
			alias := fmt.Sprintf("__h%d", len(hidden.order)+1)
			hidden.alias[key] = alias
			hidden.order = append(hidden.order, alias)
			sel.Items = append(sel.Items, sqlparser.SelectItem{Expr: cr, Alias: alias})
		}
	}
	return &sel, hidden, nil
}

// parseAttrRef parses an enrichment attr argument ("elem_name" or
// "Elecond2.elem_name") into a column reference.
func parseAttrRef(attr string) *sqlparser.ColRef {
	if i := strings.IndexByte(attr, '.'); i >= 0 {
		return &sqlparser.ColRef{Qualifier: attr[:i], Name: attr[i+1:]}
	}
	return &sqlparser.ColRef{Name: attr}
}

// parseConstant parses a REPLACECONSTANT constant argument as its tagged
// condition spells it: a bare name (HazardousWaste) or a literal
// ('HazardousWaste', 5). Any other text falls back to parseAttrRef.
func parseConstant(text string) sqlparser.Expr {
	switch e, _ := sqlparser.ParseExpr(text); e.(type) {
	case *sqlparser.ColRef, *sqlparser.Literal:
		return e
	}
	return parseAttrRef(text)
}

// --- the JoinManager ---

// The candidate lists of a boolean enrichment's two answers, and of a
// value that draws nothing from a (SCHEMAEXTENSION/-REPLACEMENT) extract:
// the row stays, with NULL in the new column. Shared; never modified.
var (
	isTrue  = []sqlval.Value{sqlval.NewBool(true)}
	isFalse = []sqlval.Value{sqlval.NewBool(false)}
	isNull  = []sqlval.Value{sqlval.Null}
)

// stepRun is one step's state for one request: its condition with the
// request's literals bound, its extract, and the candidates each attribute
// value drew (values repeat across rows; the memo spares a mapping round
// trip per row).
type stepRun struct {
	pred   *sqlexec.Predicate
	values []sqlval.Value // REPLACECONSTANT: every row's candidates
	keyed  keyed          // otherwise: candidates by subject
	memo   map[sqlval.Value][]sqlval.Value
}

// fetch returns the step's request state, running (or reusing) its
// extract.
func (e *Enricher) fetch(step *enrichStep, lits sesql.Literals, uc userCtx, st *Stats) (stepRun, error) {
	var r stepRun
	var err error
	if step.pred != nil {
		r.pred = step.pred.Bind(lits.Vals)
	}
	switch step.en.Kind {
	case sesql.ReplaceConstant:
		r.values, err = e.replacementValues(step, uc, st)
		return r, err
	case sesql.BoolSchemaExtension, sesql.BoolSchemaReplacement:
		r.keyed, err = e.conceptMembers(step, uc, st)
	default:
		r.keyed, err = e.propertyPairs(step, uc, st)
	}
	r.memo = make(map[sqlval.Value][]sqlval.Value)
	return r, err
}

// joiner is one request's pass of the compiled JoinManager.
type joiner struct {
	sp      *shapePlan
	m       *Mapping
	runs    []stepRun
	scratch []sqlval.Value // see shapePlan
	key     []byte         // join key buffer, reused for every lookup
	arena   *sqlval.RowArena
	rows    [][]sqlval.Value
}

// join makes the one pass over the base rows: each is copied into the
// scratch row and walked through the steps (fan), and every row that
// comes out is copied once, as its visible columns, into one arena.
func (j *joiner) join(base [][]sqlval.Value) [][]sqlval.Value {
	j.arena = sqlval.NewRowArena(len(j.sp.out))
	j.rows = make([][]sqlval.Value, 0, len(base))
	for _, row := range base {
		copy(j.scratch, row)
		j.fan(0)
	}
	return j.rows
}

// fan walks the scratch row through steps[k:]. A WHERE step passes it on
// once if some candidate satisfies the tagged condition (the paper's
// "treat the list as if it was a relational attribute"); a schema step
// passes it on once per candidate, in the extract's order.
func (j *joiner) fan(k int) {
	if k == len(j.sp.steps) {
		out := j.arena.Next()
		for i, s := range j.sp.out {
			out[i] = j.scratch[s]
		}
		j.rows = append(j.rows, out)
		return
	}
	step, run := &j.sp.steps[k], &j.runs[k]
	for _, v := range j.candidates(step, run) {
		j.scratch[step.out] = v
		if run.pred == nil {
			j.fan(k + 1)
			continue
		}
		// Type mismatches against heterogeneous ontology values behave
		// like SQL UNKNOWN rather than aborting the query.
		if tri, err := run.pred.EvalBool(j.scratch); err == nil && tri == sqlval.True {
			j.fan(k + 1)
			return
		}
	}
}

// candidates returns the values the step tries for the scratch row. A
// keyed extract is probed with the attribute's value routed through the
// resource mapping and back (so a column mapped to IRIs joins with
// IRI-derived values). NULL joins with nothing; read through the mapping
// it would name a subject "NULL".
func (j *joiner) candidates(step *enrichStep, run *stepRun) []sqlval.Value {
	if run.keyed == nil {
		return run.values
	}
	v := j.scratch[step.attr]
	got, ok := run.memo[v]
	if !ok {
		got = step.miss
		if !v.IsNull() {
			s := j.m.FromTerm(j.m.ToTerm(step.table, step.column, v))
			j.key = sqlval.AppendJoinKey(j.key[:0], s)
			if objs := run.keyed.match(j.key, s); objs != nil {
				got = objs
			}
		}
		run.memo[v] = got
	}
	return got
}

// keyed is a pairs or members extract: its subjects, each with its
// candidates in solution order, bucketed by sqlval.AppendJoinKey. The
// key folds the numerics into one float64 bucket, so distinct integers
// beyond 2^53 share one: it only narrows the search, and a probe
// re-verifies each subject with sqlval.Compare, as sqlexec's hash probe
// does.
type keyed map[string][]subjectCands

type subjectCands struct {
	subj  sqlval.Value
	cands []sqlval.Value
}

// entry returns subject s's entry, adding it if new.
func (k keyed) entry(key []byte, s sqlval.Value) *subjectCands {
	b := k[string(key)]
	for i := range b {
		if b[i].subj == s {
			return &b[i]
		}
	}
	b = append(b, subjectCands{subj: s})
	k[string(key)] = b
	return &b[len(b)-1]
}

// match returns the candidates of every subject under key that is
// Compare-equal to v (INTEGER 2 and DOUBLE 2.0 both match 2), or nil.
// A list several subjects share (a concept's isTrue) counts once.
func (k keyed) match(key []byte, v sqlval.Value) []sqlval.Value {
	var got []sqlval.Value
	for _, e := range k[string(key)] {
		if c, err := sqlval.Compare(e.subj, v); err != nil || c != 0 {
			continue
		}
		switch {
		case got == nil:
			got = e.cands
		case &got[0] != &e.cands[0]:
			got = append(slices.Clip(got), e.cands...)
		}
	}
	return got
}

// replaces reports whether a schema enrichment substitutes the attribute's
// column rather than adding one.
func replaces(en sesql.Enrichment) bool {
	return en.Kind == sesql.SchemaReplacement || en.Kind == sesql.BoolSchemaReplacement
}

// --- ontology access (the SQM's constructed SPARQL queries) ---

// propertyPairs returns subject→objects for the enrichment property, via its
// constructed SPARQL query or a stored one (Sec. IV-A.5: "prop refers to
// either a property from the contextual ontology, or the identifier of a
// previously stored SPARQL query").
func (e *Enricher) propertyPairs(step *enrichStep, uc userCtx, st *Stats) (keyed, error) {
	text := step.text
	minVarsErr := ""
	if sq, ok := e.Platform.LookupQuery(uc.name, step.en.Property); ok {
		text = sq.Text
		minVarsErr = fmt.Sprintf("stored query %q must project (subject, object) for %s", step.en.Property, step.en.Kind)
	}
	var key []byte
	return extract(e, uc, extractPairs, text, st, 2, minVarsErr, keyed{},
		func(pairs keyed, sol sparql.Solution) keyed {
			s, okS := sol.Term(0)
			o, okO := sol.Term(1)
			if okS && okO {
				sv := e.Mapping.FromTerm(s)
				key = sqlval.AppendJoinKey(key[:0], sv)
				en := pairs.entry(key, sv)
				en.cands = append(en.cands, e.Mapping.FromTerm(o))
			}
			return pairs
		})
}

// conceptMembers returns the values related to the concept through the
// property (for the boolean enrichments), each with the candidate list
// isTrue.
func (e *Enricher) conceptMembers(step *enrichStep, uc userCtx, st *Stats) (keyed, error) {
	var key []byte
	return extract(e, uc, extractMembers, step.text, st, 1, "", keyed{},
		func(members keyed, sol sparql.Solution) keyed {
			if s, ok := sol.Term(0); ok {
				sv := e.Mapping.FromTerm(s)
				key = sqlval.AppendJoinKey(key[:0], sv)
				members.entry(key, sv).cands = isTrue
			}
			return members
		})
}

// replacementValues returns the candidate values for a ReplaceConstant
// enrichment: the results of a stored query, or the objects of triples
// whose subject is the constant.
func (e *Enricher) replacementValues(step *enrichStep, uc userCtx, st *Stats) ([]sqlval.Value, error) {
	text := step.text
	minVarsErr := ""
	if sq, ok := e.Platform.LookupQuery(uc.name, step.en.Property); ok {
		text = sq.Text
		minVarsErr = fmt.Sprintf("stored query %q projects no variables", step.en.Property)
	}
	return extract(e, uc, extractValues, text, st, 1, minVarsErr, nil,
		func(out []sqlval.Value, sol sparql.Solution) []sqlval.Value {
			if t, ok := sol.Term(0); ok {
				out = append(out, e.Mapping.FromTerm(t))
			}
			return out
		})
}

// extract produces one ontology-side extract: the value add folds every
// solution of the SPARQL text into, starting from v. When the cache's memo
// holds the extract (view, kind, text, mapping) built at the user's
// current view epoch, that value is returned and no query runs. Otherwise
// the text is compiled (through the plan cache) and streamed over the
// user's view — solutions reach add as ID rows decoded on access, with no
// per-solution Binding map materialised — and the value is published,
// replacing any older entry. Published values are shared by every later
// hit and are never modified. minVars guards stored queries that must
// project a minimum number of variables; minVarsErr is the error reported
// when they don't.
func extract[T any](e *Enricher, uc userCtx, kind extractKind, text string, st *Stats,
	minVars int, minVarsErr string, v T, add func(T, sparql.Solution) T) (T, error) {
	key := extractKey{view: uc.view, kind: kind, text: text, mapping: e.Mapping}
	if hit, ok := e.cache.getExtract(key, uc.epoch); ok {
		st.ContextHits++
		return hit.(T), nil
	}
	st.SPARQLQueries = append(st.SPARQLQueries, text)
	t0 := time.Now()
	defer func() { st.SPARQL += time.Since(t0) }()
	var zero T
	p, err := e.cache.SPARQLPlan(text)
	if err != nil {
		return zero, fmt.Errorf("core: SPARQL: %w", err)
	}
	if p.NumVars() < minVars {
		return zero, fmt.Errorf("core: %s", minVarsErr)
	}
	n := 0
	info, err := p.StreamInfoOpts(uc.view, e.opts.SPARQL(), func(sol sparql.Solution) bool {
		v = add(v, sol)
		n++
		return true
	})
	if err != nil {
		return zero, fmt.Errorf("core: SPARQL: %w", err)
	}
	st.addParallelFallback(info.ParallelFallback)
	e.cache.putExtract(key, uc.epoch, v, n)
	return v, nil
}

// SPARQL evaluates a SPARQL query (SELECT or ASK) directly over the user's
// KB view, with the same cached plans and execution options the enrichment
// pipeline's own ontology queries use.
func (e *Enricher) SPARQL(user, text string) (*sparql.Result, error) {
	view, err := e.Platform.View(user)
	if err != nil {
		return nil, err
	}
	p, err := e.cache.SPARQLPlan(text)
	if err != nil {
		return nil, err
	}
	return p.EvalOpts(view, e.opts.SPARQL())
}

// --- helpers ---

// resolveAttr finds the result column an enrichment attr argument denotes:
// an alias, a projected column name, or a qualified column whose projection
// matches.
func resolveAttr(sel *sqlparser.Select, headers []string, attr string) (int, error) {
	ref := parseAttrRef(attr)
	var matches []int
	hasStar := false
	for _, it := range sel.Items {
		if it.Star {
			hasStar = true
		}
	}
	// Item positions align with header positions only when no star was
	// expanded; otherwise match on headers alone below.
	if !hasStar {
		for i, it := range sel.Items {
			if i >= len(headers) {
				break
			}
			if it.Alias != "" && strings.EqualFold(it.Alias, attr) {
				matches = append(matches, i)
				continue
			}
			if cr, ok := it.Expr.(*sqlparser.ColRef); ok {
				if !strings.EqualFold(cr.Name, ref.Name) {
					continue
				}
				if ref.Qualifier != "" && !strings.EqualFold(cr.Qualifier, ref.Qualifier) {
					continue
				}
				matches = append(matches, i)
			}
		}
	}
	// Stars were expanded at execution time; fall back to header names.
	if len(matches) == 0 {
		for i, h := range headers {
			if strings.EqualFold(h, ref.Name) {
				matches = append(matches, i)
			}
		}
	}
	switch len(matches) {
	case 1:
		return matches[0], nil
	case 0:
		return 0, fmt.Errorf("core: enrichment attribute %q is not in the SELECT clause", attr)
	default:
		return 0, fmt.Errorf("core: enrichment attribute %q is ambiguous", attr)
	}
}

// attrTable resolves which FROM table an attr qualifier denotes, for the
// resource mapping ("Elecond2" → elem_contained).
func attrTable(sel *sqlparser.Select, attr string) string {
	ref := parseAttrRef(attr)
	if ref.Qualifier == "" {
		if len(sel.From) == 1 && len(sel.From[0].Joins) == 0 {
			return sel.From[0].Table
		}
		return ""
	}
	for _, tr := range sel.From {
		if strings.EqualFold(tr.Alias, ref.Qualifier) || strings.EqualFold(tr.Table, ref.Qualifier) {
			return tr.Table
		}
		for _, j := range tr.Joins {
			if strings.EqualFold(j.Alias, ref.Qualifier) || strings.EqualFold(j.Table, ref.Qualifier) {
				return j.Table
			}
		}
	}
	return ""
}

func shortName(prop string) string {
	if i := strings.LastIndexAny(prop, "#/"); i >= 0 && i+1 < len(prop) {
		return prop[i+1:]
	}
	return prop
}

func uniqueName(base string, taken []string) string {
	name := base
	for n := 2; ; n++ {
		clash := false
		for _, t := range taken {
			if strings.EqualFold(t, name) {
				clash = true
				break
			}
		}
		if !clash {
			return name
		}
		name = fmt.Sprintf("%s_%d", base, n)
	}
}
