package core

import (
	"crosse/internal/lru"
	"crosse/internal/rdf"
	"crosse/internal/sparql"
	"crosse/internal/sqldb"
	"crosse/internal/sqlexec"
)

// QueryCache memoises compiled SESQL query *shapes*, compiled SPARQL
// physical plans and the users' context extracts, each in one bounded
// lru.Cache.
//
// Shape rule: a SESQL text is keyed on its shape (sesql.Shape) — the text
// with the literals of WHERE, ON and HAVING replaced by typed slots — so
// texts that differ only in those literals (the six Sec. IV strategies
// over any landfill, city or threshold) share one compiled shapePlan: the
// parsed template, the base SELECT after the enrichment rewrite, its
// sqlexec plan, the WHERE-enrichment predicates and the constructed SPARQL
// texts. A request lexes its text once and binds its literal vector into
// the plan; nothing is parsed, rendered or compiled on a hit. A text with
// no safe shape (sesql.Shape declines) is its own shape, keyed on the
// whole text. SPARQL plans stay keyed on their exact text.
//
// Epochs are checked at hit time, never swept. A shape plan binds the
// catalog's relations and index choices, so it records the schema epoch
// it was compiled at (sqldb.Database.SchemaEpoch): after any DDL the entry
// stops answering, the next miss replaces it, and an entry nobody asks for
// again ages out of the LRU. Data mutations never invalidate plans.
// SPARQL plans hold structure only — slot tables, constant tables,
// compiled regexes, never graph data or dictionary IDs — so KB mutations
// never invalidate them and one plan serves every user's view. Only
// successful compilations are cached; failing texts are re-parsed on each
// attempt.
//
// The extract memo holds the enrichment pipeline's context extracts — the
// ontology side of a join, which is data, not structure. An extract is
// keyed on the user's view handle, the extract kind, the SPARQL text and
// the resource mapping, and is valid only at the view epoch
// (kb.Platform.ViewEpoch) it was built at: any mutation of that user's
// context moves the epoch, so the entry stops answering and the next miss
// replaces it. The memo is bounded by entries and by the values its
// extracts retain (maxExtractValues).
//
// The cache is safe for concurrent use. Cached objects are shared across
// callers and never modified: templates and plans are immutable (binding
// copies what it changes), sparql.Plan keeps all per-evaluation state in
// the executor, and extract values are read-only once published.
type QueryCache struct {
	shapes   *lru.Cache[shapeKey, *shapePlan]
	sparql   *lru.Cache[string, *sparql.Plan]
	extracts *lru.Cache[extractKey, extractEntry]
}

// shapeKey identifies one compiled shape. Plans bind a catalog, their
// execution options and the resource mapping (the constructed SPARQL
// texts), so all three key it beside the shape text.
type shapeKey struct {
	db      *sqldb.Database
	mapping *Mapping
	opts    sqlexec.Options
	shape   string // a sesql.Shape key, or textKey(text) for a text that is its own shape
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

// DefaultQueryCacheSize bounds each of the caches (SESQL shapes, SPARQL
// plans, context extracts). Real workloads use a small set of distinct
// shapes; the bound only guards against adversarial streams of unique
// queries.
const DefaultQueryCacheSize = 4096

// NewQueryCache returns an empty cache holding at most max entries per
// cache (shapes, SPARQL plans and context extracts are bounded
// independently); max <= 0 uses DefaultQueryCacheSize.
func NewQueryCache(max int) *QueryCache {
	if max <= 0 {
		max = DefaultQueryCacheSize
	}
	return &QueryCache{
		shapes: lru.New[shapeKey, *shapePlan](max, 0, nil),
		sparql: lru.New[string, *sparql.Plan](max, 0, nil),
		extracts: lru.New[extractKey](max, maxExtractValues, func(e extractEntry) int64 {
			return int64(e.size)
		}),
	}
}

// getExtract returns the memoised extract for k when it was built at epoch.
func (c *QueryCache) getExtract(k extractKey, epoch uint64) (any, bool) {
	e, ok := c.extracts.Get(k, func(e extractEntry) bool { return e.epoch == epoch })
	return e.value, ok
}

// putExtract publishes an extract built at epoch, replacing the entry for k.
func (c *QueryCache) putExtract(k extractKey, epoch uint64, value any, size int) {
	c.extracts.Put(k, extractEntry{epoch: epoch, value: value, size: size})
}

// SPARQLPlan returns the compiled physical plan of a SPARQL query, parsing
// and planning on first sight.
func (c *QueryCache) SPARQLPlan(text string) (*sparql.Plan, error) {
	if p, ok := c.sparql.Get(text, nil); ok {
		return p, nil
	}
	q, err := sparql.Parse(text)
	if err != nil {
		return nil, err
	}
	p, err := sparql.Compile(q)
	if err != nil {
		return nil, err
	}
	c.sparql.Put(text, p)
	return p, nil
}

// Stats reports cumulative plan lookups: a hit is a SESQL shape compiled
// at the current schema epoch or a SPARQL text already planned, a miss one
// that had to be compiled (or failed to compile).
func (c *QueryCache) Stats() (hits, misses int) {
	s, q := c.shapes.Stats(), c.sparql.Stats()
	return int(s.Hits + q.Hits), int(s.Misses + q.Misses)
}

// ContextStats reports cumulative context-extract memo hits and misses.
func (c *QueryCache) ContextStats() (hits, misses int) {
	st := c.extracts.Stats()
	return int(st.Hits), int(st.Misses)
}
