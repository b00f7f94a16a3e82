package core

import (
	"context"
	"fmt"
	"strconv"
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

	// cache memoises compiled SESQL and SPARQL queries by text, and context
	// extracts per view epoch. Nil disables caching (every call re-parses
	// and re-extracts); New installs one by default.
	cache *QueryCache

	// opts configures both executors for every evaluation; see
	// ExecOptions. The zero value is the production configuration.
	opts ExecOptions
}

// New wires an Enricher. A nil mapping gets the default SmartGround one.
// The enricher starts with a default compiled-query cache; use
// SetQueryCache(nil) to disable it.
func New(db *engine.DB, platform *kb.Platform, mapping *Mapping) *Enricher {
	if mapping == nil {
		mapping = NewMapping("")
	}
	return &Enricher{DB: db, Platform: platform, Mapping: mapping, cache: NewQueryCache(0)}
}

// SetQueryCache replaces the enricher's compiled-query cache. A nil cache
// disables compiled-query and context-extract reuse (useful for
// benchmarking the parse and extraction paths).
func (e *Enricher) SetQueryCache(c *QueryCache) { e.cache = c }

// SetExecOptions replaces the enricher's execution options wholesale. Not
// safe to call concurrently with Query.
func (e *Enricher) SetExecOptions(o ExecOptions) { e.opts = o }

// ExecOptions returns the enricher's current execution options.
func (e *Enricher) ExecOptions() ExecOptions { return e.opts }

// QueryCacheStats reports the cache's cumulative hits and misses; zeros when
// caching is disabled.
func (e *Enricher) QueryCacheStats() (hits, misses int) {
	if e.cache == nil {
		return 0, 0
	}
	return e.cache.Stats()
}

// ContextCacheStats reports the context-extract memo's cumulative hits and
// misses; zeros when caching is disabled.
func (e *Enricher) ContextCacheStats() (hits, misses int) {
	if e.cache == nil {
		return 0, 0
	}
	return e.cache.ContextStats()
}

// parseSESQL compiles a SESQL text, consulting the cache when enabled.
func (e *Enricher) parseSESQL(text string) (*sesql.Query, error) {
	if e.cache == nil {
		return sesql.Parse(text)
	}
	return e.cache.SESQL(text)
}

// planSQL compiles a SELECT into a physical plan against the main
// platform's catalog, consulting the cache when enabled. Cached plans are
// keyed on the SQL text and the catalog's schema epoch (DDL invalidates,
// data mutations don't), so the enrichment hot path skips column-slot
// resolution and join planning on every repeat query.
func (e *Enricher) planSQL(text string, sel *sqlparser.Select) (*sqlexec.SelectPlan, error) {
	db := e.DB.Catalog()
	opts := e.opts.SQL()
	if e.cache == nil {
		return sqlexec.CompileOpts(db, sel, opts)
	}
	return e.cache.SQLSelect(db, text, opts, func() (*sqlparser.Select, error) { return sel, nil })
}

// planSPARQL compiles a SPARQL text into a physical plan, consulting the
// cache when enabled. A cache hit skips lexing, parsing and planning: the
// returned plan is ready for ID-native execution against any KB view.
func (e *Enricher) planSPARQL(text string) (*sparql.Plan, error) {
	if e.cache == nil {
		q, err := sparql.Parse(text)
		if err != nil {
			return nil, err
		}
		return sparql.Compile(q)
	}
	return e.cache.SPARQLPlan(text)
}

// Stats reports per-stage timings and artifacts of one SESQL evaluation —
// the observable counterpart of the Fig. 6 architecture, used by experiment
// E4 (stage breakdown).
type Stats struct {
	Parse    time.Duration // SQP: tag scanning + parsing
	BaseSQL  time.Duration // relational query on the main platform
	SPARQL   time.Duration // ontology queries on the user's KB
	Join     time.Duration // JoinManager: combine partial results
	FinalSQL time.Duration // final stage: deferred ORDER BY / LIMIT / OFFSET over the workset

	BaseRows  int
	FinalRows int

	BaseSQLText string
	// SPARQLQueries lists the ontology queries that ran; an extract served
	// from the memo ran none and is counted in ContextHits instead.
	SPARQLQueries []string
	ContextHits   int
	// FinalSQLText describes the final stage as Fig. 6's "final query" over
	// a notional sesql_result table. No SQL runs: the stage sorts and slices
	// the workset in place. Empty when nothing was deferred.
	FinalSQLText string

	// SkippedSources names remote sources that were down and skipped
	// under partial-results degradation (empty on complete results).
	SkippedSources []string

	// ParallelFallback records why query stages fell back to the serial
	// pipeline instead of morsel-driven parallel execution — stage-prefixed
	// reasons ("base-sql: driving scan below parallel threshold";
	// "sparql: parallelism=1") joined by "; ", deduplicated. Empty when
	// every executed stage ran parallel.
	ParallelFallback string
}

// addParallelFallback records one stage's serial-fallback reason,
// deduplicating repeats (a single SESQL evaluation can run many SPARQL
// queries that all decline for the same reason).
func (s *Stats) addParallelFallback(stage, reason string) {
	if reason == "" {
		return
	}
	entry := stage + ": " + reason
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
	q, err := e.parseSESQL(text)
	st.Parse = time.Since(t0)
	if err != nil {
		return nil, st, err
	}

	view, err := e.Platform.View(user)
	if err != nil {
		return nil, st, err
	}
	uc := userCtx{name: user, view: view}
	if e.cache != nil && len(q.Enrichments) > 0 {
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

	// Split enrichments into WHERE-affecting and schema-affecting.
	var whereEnr, schemaEnr []sesql.Enrichment
	for _, en := range q.Enrichments {
		switch en.Kind {
		case sesql.ReplaceConstant, sesql.ReplaceVariable:
			whereEnr = append(whereEnr, en)
		default:
			schemaEnr = append(schemaEnr, en)
		}
	}

	// Fast path: plain SQL through the compiled-plan cache.
	if len(q.Enrichments) == 0 {
		t0 = time.Now()
		plan, err := e.planSQL(q.SQL, q.Select)
		if err != nil {
			st.BaseSQL = time.Since(t0)
			st.BaseSQLText = q.SQL
			return nil, st, err
		}
		res, err := plan.RunContext(ctx)
		st.BaseSQL = time.Since(t0)
		st.BaseSQLText = q.SQL
		if res != nil {
			st.BaseRows, st.FinalRows = len(res.Rows), len(res.Rows)
			st.SkippedSources = res.SkippedSources
			st.addParallelFallback("base-sql", res.ParallelFallback)
		}
		return res, st, err
	}

	if len(whereEnr) > 0 {
		if q.Select.Distinct || len(q.Select.GroupBy) > 0 || q.Select.Having != nil {
			return nil, st, fmt.Errorf("core: WHERE enrichment requires a plain SELECT (no DISTINCT/GROUP BY)")
		}
	}

	// --- Build and run the base SQL query on the main platform ---
	base, hidden, err := e.buildBaseQuery(q, whereEnr)
	if err != nil {
		return nil, st, err
	}
	// ORDER BY / LIMIT / OFFSET stay in the base query (top-K pushdown)
	// unless enrichment changes what they see: a WHERE enrichment filters
	// rows afterwards, and a key naming an enriched column has nothing to
	// sort by until the column exists. Then they wait for the final stage.
	deferTail := (len(q.Select.OrderBy) > 0 || q.Select.Limit != nil || q.Select.Offset != nil) &&
		(len(whereEnr) > 0 || e.ordersByEnriched(q, base, len(hidden.order), schemaEnr))
	if deferTail {
		base.OrderBy, base.Limit, base.Offset = nil, nil, nil
	}
	st.BaseSQLText = sqlparser.SelectSQL(base)

	// The base query streams straight into the JoinManager's workset: no
	// intermediate Result, rows land once in a workset-owned arena. The
	// rendered base SQL keys the plan cache (the rewrite is deterministic
	// per SESQL text, so repeats hit).
	t0 = time.Now()
	plan, err := e.planSQL(st.BaseSQLText, base)
	if err != nil {
		st.BaseSQL = time.Since(t0)
		return nil, st, fmt.Errorf("core: base query: %w", err)
	}
	work := &workset{headers: plan.Columns()}
	arena := sqlval.NewRowArena(len(work.headers))
	info, err := plan.StreamInfoContext(ctx, func(row []sqlval.Value) bool {
		work.rows = append(work.rows, arena.Copy(row))
		return true
	})
	st.BaseSQL = time.Since(t0)
	if err != nil {
		return nil, st, fmt.Errorf("core: base query: %w", err)
	}
	skipped := info.SkippedSources
	st.SkippedSources = skipped
	st.addParallelFallback("base-sql", info.ParallelFallback)
	st.BaseRows = len(work.rows)
	visible := len(work.headers) - len(hidden.order)

	// --- WHERE enrichments (JoinManager filtering) ---
	for _, en := range whereEnr {
		if err := e.applyWhereEnrichment(q, en, hidden, work, uc, st); err != nil {
			return nil, st, err
		}
	}

	// --- Schema enrichments ---
	for _, en := range schemaEnr {
		if err := e.applySchemaEnrichment(q, en, work, uc, visible, st); err != nil {
			return nil, st, err
		}
		visible = len(work.headers) - len(hidden.order) // new columns are visible
	}

	// --- Final stage (Fig. 6's last step) ---
	// The paper hands the joined rows to a support database and queries
	// them; here they already sit next to a compiled comparator, so the
	// stage projects the visible columns and sorts and slices in place.
	t0 = time.Now()
	res := &sqlexec.Result{Columns: work.headers[:visible:visible], Rows: work.rows, SkippedSources: skipped}
	for i, r := range res.Rows {
		res.Rows[i] = r[:visible]
	}
	st.Join += time.Since(t0)

	if deferTail {
		t0 = time.Now()
		final := &sqlparser.Select{
			From:    []sqlparser.TableRef{{Table: "sesql_result"}},
			OrderBy: q.Select.OrderBy, Limit: q.Select.Limit, Offset: q.Select.Offset,
		}
		cols := make([]sqlexec.ScopeCol, visible)
		for i, h := range res.Columns {
			final.Items = append(final.Items, sqlparser.SelectItem{Expr: &sqlparser.ColRef{Name: h}})
			cols[i] = sqlexec.ScopeCol{Name: h}
		}
		st.FinalSQLText = sqlparser.SelectSQL(final)
		res.Rows, err = sqlexec.SortLimit(cols, final, res.Rows)
		st.FinalSQL = time.Since(t0)
		if err != nil {
			return nil, st, fmt.Errorf("core: final stage: %w", err)
		}
	}
	st.FinalRows = len(res.Rows)
	return res, st, nil
}

// ordersByEnriched reports whether an ORDER BY key names a column a schema
// enrichment adds or substitutes — a column the base query cannot sort by.
// Those columns are named by enrichHeader, which suffixes a property whose
// short name the base headers already hold (dangerLevel_2). So when a key
// could be such a name, the base query is planned without its tail to
// learn its headers (deferral then plans that same text, a cache hit) and
// the enrichment steps' naming is replayed over them.
func (e *Enricher) ordersByEnriched(q *sesql.Query, base *sqlparser.Select, hidden int, schemaEnr []sesql.Enrichment) bool {
	var refs, keys []*sqlparser.ColRef
	for _, ob := range q.Select.OrderBy {
		collectColRefs(ob.Expr, &refs)
	}
	for _, cr := range refs {
		for _, en := range schemaEnr {
			short := shortName(en.Property)
			if cr.Qualifier == "" && len(cr.Name) >= len(short) && strings.EqualFold(cr.Name[:len(short)], short) {
				keys = append(keys, cr)
				break
			}
		}
	}
	if len(keys) == 0 {
		return false
	}
	stripped := *base
	stripped.OrderBy, stripped.Limit, stripped.Offset = nil, nil, nil
	plan, err := e.planSQL(sqlparser.SelectSQL(&stripped), &stripped)
	if err != nil {
		return false // the base query reports it
	}
	headers := plan.Columns()
	visible := len(headers) - hidden
	for _, en := range schemaEnr {
		attrIdx, err := resolveAttr(q.Select, headers[:visible], en.Attr)
		if err != nil {
			return true // the enrichment step reports it
		}
		var name string
		headers, name = enrichHeader(headers, visible, attrIdx, en)
		if !replaces(en) {
			visible++
		}
		for _, cr := range keys {
			if strings.EqualFold(cr.Name, name) {
				return true
			}
		}
	}
	return false
}

// userCtx is one evaluation's handle on the user's context: the KB view
// every extract reads and the view epoch that keys the extract memo.
type userCtx struct {
	name  string
	view  rdf.Graph
	epoch uint64
}

// workset is the JoinManager's in-flight partial result.
type workset struct {
	headers []string
	rows    [][]sqlval.Value
}

func (w *workset) colIndex(name string) int {
	for i, h := range w.headers {
		if h == name {
			return i
		}
	}
	return -1
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
func (e *Enricher) buildBaseQuery(q *sesql.Query, whereEnr []sesql.Enrichment) (*sqlparser.Select, *hiddenCols, error) {
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

		var refs []*sqlparser.ColRef
		collectColRefs(tag.Expr, &refs)
		if en.Kind == sesql.ReplaceVariable {
			attr := parseAttrRef(en.Attr)
			refs = append(refs, attr)
		}
		// For ReplaceConstant the "attribute" is the non-relational
		// constant (e.g. HazardousWaste) — it has no database column, so
		// it must not become a hidden projection.
		constSQL := ""
		if en.Kind == sesql.ReplaceConstant {
			constSQL = parseAttrRef(en.Attr).SQL()
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

func collectColRefs(e sqlparser.Expr, out *[]*sqlparser.ColRef) {
	switch ex := e.(type) {
	case *sqlparser.ColRef:
		*out = append(*out, ex)
	case *sqlparser.BinExpr:
		collectColRefs(ex.L, out)
		collectColRefs(ex.R, out)
	case *sqlparser.UnaryExpr:
		collectColRefs(ex.E, out)
	case *sqlparser.IsNull:
		collectColRefs(ex.E, out)
	case *sqlparser.InList:
		collectColRefs(ex.E, out)
		for _, le := range ex.List {
			collectColRefs(le, out)
		}
	case *sqlparser.Between:
		collectColRefs(ex.E, out)
		collectColRefs(ex.Lo, out)
		collectColRefs(ex.Hi, out)
	case *sqlparser.FuncCall:
		for _, a := range ex.Args {
			collectColRefs(a, out)
		}
	case *sqlparser.CaseExpr:
		if ex.Operand != nil {
			collectColRefs(ex.Operand, out)
		}
		for _, w := range ex.Whens {
			collectColRefs(w.Cond, out)
			collectColRefs(w.Then, out)
		}
		if ex.Else != nil {
			collectColRefs(ex.Else, out)
		}
	}
}

// --- WHERE enrichments ---

// applyWhereEnrichment re-evaluates the tagged condition over every base
// row with the constant (ReplaceConstant) or the attribute's value
// (ReplaceVariable) replaced by the values the ontology yields; a row
// survives when some replacement satisfies the condition (the paper's
// "treat the list as if it was a relational attribute").
func (e *Enricher) applyWhereEnrichment(q *sesql.Query, en sesql.Enrichment, hidden *hiddenCols, work *workset, uc userCtx, st *Stats) error {
	tag := q.Conds[en.CondID]

	// Rewrite the condition: every referenced column → its hidden alias;
	// for ReplaceConstant the constant → pseudo-variable __v; for
	// ReplaceVariable the attribute → __v.
	cond := tag.Expr
	var refs []*sqlparser.ColRef
	collectColRefs(tag.Expr, &refs)
	pseudo := &sqlparser.ColRef{Name: "__v"}

	switch en.Kind {
	case sesql.ReplaceConstant:
		constRef := parseAttrRef(en.Attr)
		rewritten, n := sesql.ReplaceSubtree(cond, constRef, pseudo)
		if n == 0 {
			return fmt.Errorf("core: constant %s does not appear in condition %s", en.Attr, en.CondID)
		}
		cond = rewritten
	case sesql.ReplaceVariable:
		attrRef := parseAttrRef(en.Attr)
		rewritten, n := sesql.ReplaceSubtree(cond, attrRef, pseudo)
		if n == 0 {
			return fmt.Errorf("core: attribute %s does not appear in condition %s", en.Attr, en.CondID)
		}
		cond = rewritten
	}
	for _, cr := range refs {
		alias, ok := hidden.alias[cr.SQL()]
		if !ok {
			continue // already rewritten to __v
		}
		cond, _ = sesql.ReplaceSubtree(cond, cr, &sqlparser.ColRef{Name: alias})
	}

	scopeCols := make([]sqlexec.ScopeCol, len(work.headers)+1)
	for i, h := range work.headers {
		scopeCols[i] = sqlexec.ScopeCol{Name: h}
	}
	scopeCols[len(work.headers)] = sqlexec.ScopeCol{Name: "__v"}

	switch en.Kind {
	case sesql.ReplaceConstant:
		values, err := e.replacementValues(en, uc, st)
		if err != nil {
			return err
		}
		return existsFilter(work, scopeCols, cond, func(row []sqlval.Value, try func(sqlval.Value) (bool, error)) (bool, error) {
			for _, v := range values {
				ok, err := try(v)
				if err != nil || ok {
					return ok, err
				}
			}
			return false, nil
		}, st)

	case sesql.ReplaceVariable:
		pairs, err := e.propertyPairs(en, uc, st)
		if err != nil {
			return err
		}
		attr := parseAttrRef(en.Attr)
		attrIdx := work.colIndex(hidden.alias[attr.SQL()])
		if attrIdx < 0 {
			return fmt.Errorf("core: internal: hidden column for %s missing", en.Attr)
		}
		table := attrTable(q.Select, en.Attr)
		return existsFilter(work, scopeCols, cond, func(row []sqlval.Value, try func(sqlval.Value) (bool, error)) (bool, error) {
			for _, v := range pairs[valueKeyMapped(e.Mapping, table, attr.Name, row[attrIdx])] {
				ok, err := try(v)
				if err != nil || ok {
					return ok, err
				}
			}
			return false, nil
		}, st)
	}
	return nil
}

// existsFilter keeps rows for which the candidate generator finds a value
// satisfying the rewritten condition. The condition compiles once to a
// slot-resolved predicate; per candidate value the cost is one evaluation
// over the scratch row, not an AST walk with per-row name resolution.
func existsFilter(work *workset, scopeCols []sqlexec.ScopeCol, cond sqlparser.Expr,
	gen func(row []sqlval.Value, try func(sqlval.Value) (bool, error)) (bool, error), st *Stats) error {
	t0 := time.Now()
	defer func() { st.Join += time.Since(t0) }()

	pred, err := sqlexec.CompilePredicate(scopeCols, cond)
	if err != nil {
		return fmt.Errorf("core: WHERE enrichment condition: %w", err)
	}
	scratch := make([]sqlval.Value, len(work.headers)+1)
	var kept [][]sqlval.Value
	for _, row := range work.rows {
		copy(scratch, row)
		try := func(v sqlval.Value) (bool, error) {
			scratch[len(work.headers)] = v
			tri, err := pred.EvalBool(scratch)
			if err != nil {
				// Type mismatches against heterogeneous ontology values
				// behave like SQL UNKNOWN rather than aborting the query.
				return false, nil
			}
			return tri == sqlval.True, nil
		}
		ok, err := gen(row, try)
		if err != nil {
			return err
		}
		if ok {
			kept = append(kept, row)
		}
	}
	work.rows = kept
	return nil
}

// --- schema enrichments ---

func (e *Enricher) applySchemaEnrichment(q *sesql.Query, en sesql.Enrichment, work *workset, uc userCtx, visible int, st *Stats) error {
	attrIdx, err := resolveAttr(q.Select, work.headers[:visible], en.Attr)
	if err != nil {
		return err
	}
	// The ontology side of the join: what the column's values map to.
	table := attrTable(q.Select, en.Attr)
	column := parseAttrRef(en.Attr).Name

	switch en.Kind {
	case sesql.SchemaExtension, sesql.SchemaReplacement:
		pairs, err := e.propertyPairs(en, uc, st)
		if err != nil {
			return err
		}
		t0 := time.Now()
		replace := replaces(en)
		rows := make([][]sqlval.Value, 0, len(work.rows))
		arena := extendArena(work.rows, replace)
		// Column values repeat across rows; memoise the value→term→key
		// mapping so the per-row cost is one comparable-map probe instead
		// of an IRI string build.
		memo := make(map[sqlval.Value][]sqlval.Value)
		for _, row := range work.rows {
			objs, ok := memo[row[attrIdx]]
			if !ok {
				objs = pairs[valueKeyMapped(e.Mapping, table, column, row[attrIdx])]
				memo[row[attrIdx]] = objs
			}
			if len(objs) == 0 {
				rows = append(rows, extendRow(arena, row, attrIdx, sqlval.Null, replace, visible))
				continue
			}
			for _, o := range objs {
				rows = append(rows, extendRow(arena, row, attrIdx, o, replace, visible))
			}
		}
		work.rows = rows
		work.headers, _ = enrichHeader(work.headers, visible, attrIdx, en)
		st.Join += time.Since(t0)
		return nil

	case sesql.BoolSchemaExtension, sesql.BoolSchemaReplacement:
		members, err := e.conceptMembers(en, uc, st)
		if err != nil {
			return err
		}
		t0 := time.Now()
		replace := replaces(en)
		rows := make([][]sqlval.Value, 0, len(work.rows))
		arena := extendArena(work.rows, replace)
		memo := make(map[sqlval.Value]bool)
		for _, row := range work.rows {
			isMember, ok := memo[row[attrIdx]]
			if !ok {
				_, isMember = members[valueKeyMapped(e.Mapping, table, column, row[attrIdx])]
				memo[row[attrIdx]] = isMember
			}
			rows = append(rows, extendRow(arena, row, attrIdx, sqlval.NewBool(isMember), replace, visible))
		}
		work.rows = rows
		work.headers, _ = enrichHeader(work.headers, visible, attrIdx, en)
		st.Join += time.Since(t0)
		return nil
	}
	return fmt.Errorf("core: unexpected schema enrichment %v", en.Kind)
}

// extendArena returns a row arena sized for the enrichment's output rows
// (same width on replacement, one wider on extension).
func extendArena(rows [][]sqlval.Value, replace bool) *sqlval.RowArena {
	w := 0
	if len(rows) > 0 {
		w = len(rows[0])
		if !replace {
			w++
		}
	}
	return sqlval.NewRowArena(w)
}

// extendRow either replaces column attrIdx with v or inserts v as a new
// column just before position visible (i.e. after the visible columns,
// before any hidden ones). Output rows come from the arena, so the
// per-input-row join loop does not allocate.
func extendRow(a *sqlval.RowArena, row []sqlval.Value, attrIdx int, v sqlval.Value, replace bool, visible int) []sqlval.Value {
	if replace {
		out := a.Copy(row)
		out[attrIdx] = v
		return out
	}
	out := a.Next()
	copy(out, row[:visible])
	out[visible] = v
	copy(out[visible+1:], row[visible:])
	return out
}

// enrichHeader names the column a schema enrichment adds at visible (or
// substitutes at attrIdx, in place) and returns the headers after it.
func enrichHeader(headers []string, visible, attrIdx int, en sesql.Enrichment) ([]string, string) {
	name := uniqueName(shortName(en.Property), headers)
	if replaces(en) {
		headers[attrIdx] = name
		return headers, name
	}
	return insertHeader(headers, visible, name), name
}

// replaces reports whether a schema enrichment substitutes the attribute's
// column rather than adding one.
func replaces(en sesql.Enrichment) bool {
	return en.Kind == sesql.SchemaReplacement || en.Kind == sesql.BoolSchemaReplacement
}

func insertHeader(headers []string, visible int, name string) []string {
	out := make([]string, 0, len(headers)+1)
	out = append(out, headers[:visible]...)
	out = append(out, name)
	out = append(out, headers[visible:]...)
	return out
}

// --- ontology access (the SQM's constructed SPARQL queries) ---

// propertyPairs returns subject→objects for the enrichment property, via a
// constructed SPARQL query or a stored one (Sec. IV-A.5: "prop refers to
// either a property from the contextual ontology, or the identifier of a
// previously stored SPARQL query").
func (e *Enricher) propertyPairs(en sesql.Enrichment, uc userCtx, st *Stats) (map[string][]sqlval.Value, error) {
	text := ""
	minVarsErr := ""
	if sq, ok := e.Platform.LookupQuery(uc.name, en.Property); ok {
		text = sq.Text
		minVarsErr = fmt.Sprintf("stored query %q must project (subject, object) for %s", en.Property, en.Kind)
	} else {
		prop := e.Mapping.PropertyIRI(en.Property)
		text = fmt.Sprintf("SELECT ?s ?o WHERE { ?s <%s> ?o }", prop.Value)
	}
	return extract(e, uc, extractPairs, text, st, 2, minVarsErr, map[string][]sqlval.Value{},
		func(pairs map[string][]sqlval.Value, sol sparql.Solution) map[string][]sqlval.Value {
			s, okS := sol.Term(0)
			o, okO := sol.Term(1)
			if okS && okO {
				key := valueKey(e.Mapping.FromTerm(s))
				pairs[key] = append(pairs[key], e.Mapping.FromTerm(o))
			}
			return pairs
		})
}

// conceptMembers returns the set of values related to the concept through
// the property (for the boolean enrichments).
func (e *Enricher) conceptMembers(en sesql.Enrichment, uc userCtx, st *Stats) (map[string]struct{}, error) {
	prop := e.Mapping.PropertyIRI(en.Property)
	concepts := e.Mapping.ConceptTerms(en.Concept)
	var parts []string
	for _, c := range concepts {
		parts = append(parts, fmt.Sprintf("{ ?s <%s> %s }", prop.Value, c.String()))
	}
	text := "SELECT DISTINCT ?s WHERE { " + strings.Join(parts, " UNION ") + " }"
	return extract(e, uc, extractMembers, text, st, 1, "", map[string]struct{}{},
		func(members map[string]struct{}, sol sparql.Solution) map[string]struct{} {
			if s, ok := sol.Term(0); ok {
				members[valueKey(e.Mapping.FromTerm(s))] = struct{}{}
			}
			return members
		})
}

// replacementValues returns the candidate values for a ReplaceConstant
// enrichment: the results of a stored query, or the objects of triples
// whose subject is the constant.
func (e *Enricher) replacementValues(en sesql.Enrichment, uc userCtx, st *Stats) ([]sqlval.Value, error) {
	text := ""
	minVarsErr := ""
	if sq, ok := e.Platform.LookupQuery(uc.name, en.Property); ok {
		text = sq.Text
		minVarsErr = fmt.Sprintf("stored query %q projects no variables", en.Property)
	} else {
		prop := e.Mapping.PropertyIRI(en.Property)
		var parts []string
		for _, c := range e.Mapping.ConceptTerms(en.Attr) {
			parts = append(parts, fmt.Sprintf("{ %s <%s> ?o }", c.String(), prop.Value))
		}
		text = "SELECT ?o WHERE { " + strings.Join(parts, " UNION ") + " }"
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
	var key extractKey
	if e.cache != nil {
		key = extractKey{view: uc.view, kind: kind, text: text, mapping: e.Mapping}
		if hit, ok := e.cache.getExtract(key, uc.epoch); ok {
			st.ContextHits++
			return hit.(T), nil
		}
	}
	st.SPARQLQueries = append(st.SPARQLQueries, text)
	t0 := time.Now()
	defer func() { st.SPARQL += time.Since(t0) }()
	var zero T
	p, err := e.planSPARQL(text)
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
	st.addParallelFallback("sparql", info.ParallelFallback)
	if e.cache != nil {
		e.cache.putExtract(key, uc.epoch, v, n)
	}
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
	p, err := e.planSPARQL(text)
	if err != nil {
		return nil, err
	}
	return p.EvalOpts(view, e.opts.SPARQL())
}

// --- helpers ---

// valueKey encodes a SQL value for hash joining ontology results with
// relational values (numeric types fold together). It runs once per base
// row per enrichment, so it builds the key directly instead of going
// through fmt.
func valueKey(v sqlval.Value) string {
	t := v.Type()
	if t == sqlval.TypeFloat {
		t = sqlval.TypeInt
	}
	s := v.String()
	var b strings.Builder
	b.Grow(len(s) + 4)
	b.WriteString(strconv.Itoa(int(t)))
	b.WriteByte('|')
	b.WriteString(s)
	return b.String()
}

// valueKeyMapped routes the relational value through the resource mapping
// and back, so a column mapped to IRIs joins with IRI-derived values.
func valueKeyMapped(m *Mapping, table, column string, v sqlval.Value) string {
	if v.IsNull() {
		return "null"
	}
	return valueKey(m.FromTerm(m.ToTerm(table, column, v)))
}

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
