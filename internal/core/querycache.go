package core

import (
	"sync"
	"sync/atomic"

	"crosse/internal/rdf"
	"crosse/internal/sesql"
	"crosse/internal/sparql"
	"crosse/internal/sqldb"
	"crosse/internal/sqlexec"
	"crosse/internal/sqlparser"
)

// QueryCache memoises compiled SESQL queries and compiled SPARQL *physical
// plans* keyed on their exact source text, so repeated enrichment queries —
// the paper's E4/E5/E6 workloads re-issue the same handful of SESQL texts,
// and every schema enrichment re-constructs the same SPARQL property query —
// skip lexing, parsing AND planning entirely. A cached sparql.Plan carries
// the variable-slot table, the join-ready pattern forms and the precompiled
// FILTER regexes (see internal/sparql), so a cache hit goes straight to
// ID-native execution.
//
// Invalidation rule: the cache key is the query text and nothing else.
// Compiled plans hold structure only — slot tables, constant tables,
// compiled regexes — never graph data or dictionary IDs (constants resolve
// to IDs per evaluation, against the target graph's dictionary), so KB
// mutations (inserts, imports, retractions) never invalidate cached entries:
// the same plan simply evaluates against the updated graph, and the same
// plan is valid against every user's view simultaneously. Only successful
// compilations are cached; failing texts are re-parsed on each attempt.
//
// That rule covers the three plan maps only. The cache also holds the
// enrichment pipeline's context extracts — the ontology side of a join,
// which is data, not structure. An extract is keyed on the user's view
// handle, the extract kind, the SPARQL text and the resource mapping, and
// is valid only at the view epoch (kb.Platform.ViewEpoch) it was built at:
// any mutation of that user's context moves the epoch, so the entry stops
// answering and the next miss replaces it.
//
// The cache is safe for concurrent use. Cached objects are shared across
// callers: parsed SESQL ASTs are treated as immutable (the enricher
// shallow-copies the SELECT before rewriting it), sparql.Plan is
// immutable by construction — all per-evaluation state lives in the
// executor — and extract values are never modified once published, which
// makes sharing sound.
type QueryCache struct {
	mu     sync.RWMutex
	sesql  map[string]*sesql.Query
	sparql map[string]*sparql.Plan
	sql    map[sqlKey]*sqlPlanEntry
	max    int

	// Counters are atomic so the hit path stays contention-free: hits
	// happen on every request under load and must not take the write lock.
	hits, misses atomic.Int64

	// The extract memo has its own lock, so a read never waits behind the
	// SQL plan-map sweep. xvalues counts the values its entries retain.
	xmu            sync.RWMutex
	extracts       map[extractKey]extractEntry
	xvalues        int
	xhits, xmisses atomic.Int64
}

// extractKind names the builder that produced an extract: one stored-query
// text feeds both the subject→objects pairs and the replacement values.
type extractKind uint8

const (
	extractPairs extractKind = iota
	extractMembers
	extractValues
)

// extractKey identifies one memoised context extract. The view handle, not
// the user name, keys it: a platform swapped under the enricher has new
// views, so its users can never hit the old platform's entries.
type extractKey struct {
	view    rdf.Graph
	kind    extractKind
	text    string
	mapping *Mapping
}

// extractEntry is one memoised extract and the view epoch it was built at.
type extractEntry struct {
	epoch uint64
	value any
	size  int
}

// maxExtractValues bounds the values retained across all memoised extracts;
// an extract larger than this on its own is never memoised.
const maxExtractValues = 1 << 20

// sqlKey identifies one cached SQL physical plan: the text alone is not
// enough, because plans bind to a specific catalog — two databases
// issuing the same text must not evict each other's entries.
type sqlKey struct {
	db   *sqldb.Database
	text string
}

// sqlPlanEntry is one cached SQL physical plan. Unlike SPARQL plans — pure
// structure, valid against any graph — a compiled SelectPlan binds to the
// catalog's relations and index choices, so the entry records the schema
// epoch at compile time: any DDL (CREATE/DROP TABLE, CREATE INDEX,
// foreign registration) bumps the epoch and the stale plan recompiles on
// next lookup. Data mutations never invalidate entries.
type sqlPlanEntry struct {
	plan  *sqlexec.SelectPlan
	epoch uint64
	opts  sqlexec.Options
}

// DefaultQueryCacheSize bounds each of the cache maps (SESQL, SPARQL and
// SQL plans, context extracts). Real workloads use a small set of distinct
// query texts; the bound only guards against adversarial streams of unique
// queries.
const DefaultQueryCacheSize = 4096

// NewQueryCache returns an empty cache holding at most max entries per
// map (SESQL, SPARQL and SQL plans and context extracts are bounded
// independently); max <= 0 uses DefaultQueryCacheSize.
func NewQueryCache(max int) *QueryCache {
	if max <= 0 {
		max = DefaultQueryCacheSize
	}
	return &QueryCache{
		sesql:    make(map[string]*sesql.Query),
		sparql:   make(map[string]*sparql.Plan),
		sql:      make(map[sqlKey]*sqlPlanEntry),
		max:      max,
		extracts: make(map[extractKey]extractEntry),
	}
}

// getExtract returns the memoised extract for k when it was built at epoch.
func (c *QueryCache) getExtract(k extractKey, epoch uint64) (any, bool) {
	c.xmu.RLock()
	e, ok := c.extracts[k]
	c.xmu.RUnlock()
	if ok && e.epoch == epoch {
		c.xhits.Add(1)
		return e.value, true
	}
	c.xmisses.Add(1)
	return nil, false
}

// putExtract publishes an extract built at epoch, replacing any entry for k
// built at an older one. When the entry count or the retained values would
// pass their bounds, the whole memo is dropped first.
func (c *QueryCache) putExtract(k extractKey, epoch uint64, value any, size int) {
	if size > maxExtractValues {
		return
	}
	c.xmu.Lock()
	defer c.xmu.Unlock()
	old, ok := c.extracts[k]
	if ok {
		if old.epoch > epoch {
			return // a concurrent query already published a newer extract
		}
		c.xvalues -= old.size
	}
	if (!ok && len(c.extracts) >= c.max) || c.xvalues+size > maxExtractValues {
		c.extracts = make(map[extractKey]extractEntry)
		c.xvalues = 0
	}
	c.extracts[k] = extractEntry{epoch: epoch, value: value, size: size}
	c.xvalues += size
}

// SQLSelect returns the compiled physical plan of a SELECT against db,
// compiling on first sight and whenever the catalog's schema epoch has
// moved since the plan was compiled, or the requested execution options
// differ from the cached plan's (plans bind their options at compile
// time). The text is the cache key; parse supplies the AST on a miss (so
// callers that already hold a parsed SELECT don't re-parse). A hit skips
// parsing, column-slot resolution and join planning entirely — the plan
// is ready to Run or Stream.
func (c *QueryCache) SQLSelect(db *sqldb.Database, text string, opts sqlexec.Options, parse func() (*sqlparser.Select, error)) (*sqlexec.SelectPlan, error) {
	epoch := db.SchemaEpoch()
	key := sqlKey{db: db, text: text}
	c.mu.RLock()
	e, ok := c.sql[key]
	c.mu.RUnlock()
	if ok && e.epoch == epoch && e.opts == opts {
		c.hits.Add(1)
		return e.plan, nil
	}
	sel, err := parse()
	if err != nil {
		return nil, err
	}
	plan, err := sqlexec.CompileOpts(db, sel, opts)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if len(c.sql) >= c.max {
		c.sql = make(map[sqlKey]*sqlPlanEntry)
	}
	// SQL plans hold relation handles — unlike SPARQL plans they pin
	// catalog data. A miss means this db's epoch moved (or the text is
	// new): sweep the db's stale entries so plans bound to dropped tables
	// don't keep their rows reachable until the map bound trips.
	for k, e := range c.sql {
		if k.db == db && e.epoch != epoch {
			delete(c.sql, k)
		}
	}
	c.sql[key] = &sqlPlanEntry{plan: plan, epoch: epoch, opts: opts}
	c.mu.Unlock()
	c.misses.Add(1)
	return plan, nil
}

// SESQL returns the compiled form of a SESQL query, parsing on first sight.
func (c *QueryCache) SESQL(text string) (*sesql.Query, error) {
	c.mu.RLock()
	q, ok := c.sesql[text]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return q, nil
	}
	q, err := sesql.Parse(text)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if len(c.sesql) >= c.max {
		c.sesql = make(map[string]*sesql.Query)
	}
	c.sesql[text] = q
	c.mu.Unlock()
	c.misses.Add(1)
	return q, nil
}

// SPARQLPlan returns the compiled physical plan of a SPARQL query, parsing
// and planning on first sight.
func (c *QueryCache) SPARQLPlan(text string) (*sparql.Plan, error) {
	c.mu.RLock()
	p, ok := c.sparql[text]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return p, nil
	}
	q, err := sparql.Parse(text)
	if err != nil {
		return nil, err
	}
	p, err = sparql.Compile(q)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if len(c.sparql) >= c.max {
		c.sparql = make(map[string]*sparql.Plan)
	}
	c.sparql[text] = p
	c.mu.Unlock()
	c.misses.Add(1)
	return p, nil
}

// sqlLen reports the live SQL-plan entry count (tests).
func (c *QueryCache) sqlLen() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.sql)
}

// Stats reports cumulative cache hits and misses (compiles).
func (c *QueryCache) Stats() (hits, misses int) {
	return int(c.hits.Load()), int(c.misses.Load())
}

// ContextStats reports cumulative context-extract memo hits and misses.
func (c *QueryCache) ContextStats() (hits, misses int) {
	return int(c.xhits.Load()), int(c.xmisses.Load())
}
