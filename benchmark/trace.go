package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"time"

	"crosse/internal/core"
	"crosse/internal/dataset"
	"crosse/internal/fdw"
	"crosse/internal/kb"
	"crosse/internal/rdf"
	"crosse/internal/serve"
	"crosse/internal/sesql"
	"crosse/internal/sparql"
	"crosse/internal/sqldb"
	"crosse/internal/sqlval"
)

// span is one timed call into a layer. Tracing lives entirely in this
// directory: a request is first served by the real handler, then replayed
// layer by layer through the public functions the handler calls, each call
// wrapped in a span. Parent is the span whose work the call repeats a part
// of; the replays run after it, not inside it, so a span's start and end
// are those of the replay.
type span struct {
	ID      int    `json:"id"`
	Request int    `json:"request_id"`
	Parent  int    `json:"parent"` // 0: the request's root
	Layer   string `json:"layer"`  // package of this repository; "aux" spans belong to no budget
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"` // since the traced pass began
	End     int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type tracer struct {
	t0      time.Time
	spans   []span
	request int
}

// add records a span that ran from start for d and returns its id.
func (t *tracer) add(parent int, layer, name string, start time.Time, d time.Duration) int {
	s := span{ID: len(t.spans) + 1, Request: t.request, Parent: parent, Layer: layer, Name: name, Start: int64(start.Sub(t.t0))}
	s.End = s.Start + int64(d)
	t.spans = append(t.spans, s)
	return s.ID
}

// time runs fn inside a new span.
func (t *tracer) time(parent int, layer, name string, fn func()) int {
	start := time.Now()
	fn()
	return t.add(parent, layer, name, start, time.Since(start))
}

// selfTimes returns each span's self time: its duration minus the part its
// direct children cover. Children that overlap each other are counted once;
// children that together outlast the parent leave it zero, not negative.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		cs := children[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered, reach int64
		for i, c := range cs {
			if i == 0 || c.Start > reach {
				covered += c.End - c.Start
				reach = c.End
			} else if c.End > reach {
				covered += c.End - reach
				reach = c.End
			}
		}
		self[s.ID] = max(0, s.dur()-time.Duration(covered))
	}
	return self
}

// aggregate folds the spans of all requests into one tree per shape: one
// span per path of names, as long as all the spans it stands for together,
// siblings laid end to end. Self times taken on the folded tree subtract
// sums from sums. Taken per request they are biased: a replay is as noisy
// as the call it repeats, about half the replays outlast their parents, and
// clipping each of those at zero adds up to a budget well over the whole.
func aggregate(spans []span) []span {
	keys := make([]string, len(spans)) // by span id - 1
	index := map[string]int{}          // key -> position in out
	filled := map[int]int64{}          // folded parent id -> end of its last child
	var out []span
	for _, s := range spans {
		key := s.Name // a root: "rest.handler <shape>"
		parent := 0
		if s.Parent != 0 {
			key = keys[s.Parent-1] + "/" + strings.Fields(s.Name)[0]
			parent = out[index[keys[s.Parent-1]]].ID
		}
		keys[s.ID-1] = key
		i, ok := index[key]
		if !ok {
			i = len(out)
			index[key] = i
			out = append(out, span{ID: i + 1, Parent: parent, Layer: s.Layer, Name: key})
		}
		out[i].End += s.End - s.Start
	}
	for i := range out {
		d := out[i].End
		out[i].Start = filled[out[i].Parent]
		out[i].End = out[i].Start + d
		filled[out[i].Parent] = out[i].End
	}
	return out
}

// handlerTransport serves a client's requests by calling the handler
// directly into a recorder: no socket, one goroutine.
type handlerTransport struct {
	h     http.Handler
	start time.Time
	took  time.Duration
	bytes int
}

func (t *handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.start = time.Now()
	t.h.ServeHTTP(rec, req)
	t.took = time.Since(t.start)
	t.bytes = rec.Body.Len()
	return rec.Result(), nil
}

// scanCall is one scan the executor made on a foreign table.
type scanCall struct {
	table *fdw.ForeignTable
	eqCol string // "" for a full scan
	eqVal sqlval.Value
}

// scanRecorder stands in for a foreign table in the traced run's catalog
// and notes each scan in the replayer's scanLog, while one is set, so the
// scans of a base query can be replayed against the same server afterwards.
type scanRecorder struct {
	*fdw.ForeignTable
	rp *replayer
}

func (r scanRecorder) note(col string, v sqlval.Value) {
	if log := r.rp.scanLog; log != nil {
		*log = append(*log, scanCall{r.ForeignTable, col, v})
	}
}

func (r scanRecorder) Scan(fn func([]sqlval.Value) bool) error {
	r.note("", sqlval.Null)
	return r.ForeignTable.Scan(fn)
}

func (r scanRecorder) ScanContext(ctx context.Context, fn func([]sqlval.Value) bool) error {
	r.note("", sqlval.Null)
	return r.ForeignTable.ScanContext(ctx, fn)
}

func (r scanRecorder) ScanEq(col string, v sqlval.Value, fn func([]sqlval.Value) bool) error {
	r.note(col, v)
	return r.ForeignTable.ScanEq(col, v, fn)
}

func (r scanRecorder) ScanEqContext(ctx context.Context, col string, v sqlval.Value, fn func([]sqlval.Value) bool) error {
	r.note(col, v)
	return r.ForeignTable.ScanEqContext(ctx, col, v, fn)
}

var _ sqldb.ContextFilteredRelation = scanRecorder{}
var _ sqldb.ContextRelation = scanRecorder{}

// tracedRequests is how many requests of client 0's sequence each pass
// replays: fixed, so that with one client the counts repeat exactly.
var tracedRequests = map[string]int{
	"enrich_uncached": 1500,
	"enrich_hot":      3000,
	"belief_churn":    2000,
	"federated_scan":  300,
	"analytic_large":  24,
}

// counters are the layers' own counts, read at the handler boundary.
type counters struct {
	cache             serve.CacheStats
	shed              uint64
	planHits, planMis int
	walAppends        uint64
	walSyncs          uint64
	walBytes          int64
	fdwReqs, fdwRows  int
	fdwRetries        int
}

func readCounters(fx *fixture) counters {
	c := counters{cache: fx.cache.Stats(), shed: fx.limiter.Stats().Rejected}
	c.planHits, c.planMis = fx.enricher.QueryCacheStats()
	if fx.journal != nil {
		st := fx.journal.Status()
		c.walAppends, c.walSyncs, c.walBytes = st.Appends, st.Syncs, st.Size
	}
	if fx.fdwCli != nil {
		c.fdwReqs, c.fdwRows = fx.fdwCli.Stats()
		c.fdwRetries = fx.fdwCli.Retries()
	}
	return c
}

// layerTotals accumulates the traced pass.
type layerTotals struct {
	n, misses, writes, inserts, retracts int
	handler, overhead, cacheGet          time.Duration
	bytes                                int
	parse, coreWall, join, final, unattr time.Duration
	base                                 time.Duration
	baseRows, finalRows                  int
	sparqlT                              time.Duration
	sparqlQueries, solutions             int
	matchT                               time.Duration
	matched, viewTriples                 int
	kbInsert, kbRetract, journalT        time.Duration
	fdwT                                 time.Duration
	serialT, parallelT                   time.Duration
	fallbacks                            int
	delta                                counters
}

func (d *counters) addDelta(before, after counters) {
	d.cache.Hits += after.cache.Hits - before.cache.Hits
	d.cache.Misses += after.cache.Misses - before.cache.Misses
	d.cache.Evictions += after.cache.Evictions - before.cache.Evictions
	d.shed += after.shed - before.shed
	d.planHits += after.planHits - before.planHits
	d.planMis += after.planMis - before.planMis
	d.walAppends += after.walAppends - before.walAppends
	d.walSyncs += after.walSyncs - before.walSyncs
	d.walBytes += after.walBytes - before.walBytes
	d.fdwReqs += after.fdwReqs - before.fdwReqs
	d.fdwRows += after.fdwRows - before.fdwRows
	d.fdwRetries += after.fdwRetries - before.fdwRetries
}

// tracedReq is one request of the traced pass and what its replays found.
type tracedReq struct {
	id     int // request_id of its spans
	op     *op
	root   int // span of the handler call
	took   time.Duration
	hit    bool          // the result cache answered
	failed bool          // not replayed
	below  time.Duration // the replay directly beneath the handler: pipeline, journal call or endpoint SPARQL
	core   int           // span of the pipeline replay, 0 if there was none
	stats  *core.Stats
	base   int // span of the base SQL replay
	scans  []scanCall
	sparql []sparqlRun
}

// sparqlRun is one replayed SPARQL evaluation, kept for the pattern replay.
type sparqlRun struct {
	span int
	plan *sparql.Plan
}

// replayer holds what the layer-by-layer replay needs besides the fixture.
//
// The replay runs in phases, each over a batch of traced requests: handler
// calls, then whatever sits directly beneath the handler, then the
// pipeline's stages, then what those read. Between a call and the replay of
// its parts lie the batch's other requests, so a replay finds processor
// caches as cold as the call did. Replaying a request's parts right after
// serving it measured them a third too fast.
type replayer struct {
	fx       *fixture
	tr       *tracer
	tot      layerTotals
	parallel *core.Enricher // production options, its own plan cache
	serial   *core.Enricher // Parallelism 1, for parallel_speedup
	twin     *kb.Platform   // unjournaled platform for kb_insert_us / kb_retract_us
	plans    map[string]*sparql.Plan
	scanLog  *[]scanCall
}

func (rp *replayer) dur(id int) time.Duration { return rp.tr.spans[id-1].dur() }

// cacheKey mirrors rest.Server.cacheKey for a request without stats or
// rank, to time the Get the handler makes.
func (rp *replayer) cacheKey(o *op) serve.Key {
	k := serve.Key{User: o.user, Query: o.text, Lang: "sesql", Opts: fmt.Sprintf("stats=false&rank=false&exec=%+v", rp.fx.enricher.ExecOptions()),
		ViewEpoch: rp.fx.platform.ViewEpoch(o.user), SchemaEpoch: rp.fx.db.Catalog().SchemaEpoch()}
	if o.kind == opSPARQL {
		k.Lang, k.Opts = "sparql", fmt.Sprintf("&exec=%+v", rp.fx.enricher.ExecOptions())
	}
	return k
}

// serve sends the request to the handler, reads the layers' counters on
// both sides of the call and times the cache lookup the handler makes.
func (rp *replayer) serve(c *client, ht *handlerTransport, name string, r *tracedReq) {
	fx, tot, o := rp.fx, &rp.tot, r.op
	before := readCounters(fx)
	c.do(o, true)
	after := readCounters(fx)
	r.root, r.took = rp.tr.add(0, "rest", "rest.handler "+name, ht.start, ht.took), ht.took
	r.hit = after.cache.Hits > before.cache.Hits
	r.failed = c.log[len(c.log)-1].fail != ""
	tot.n++
	tot.handler += ht.took
	tot.bytes += ht.bytes
	tot.viewTriples += fx.platform.ViewSize(o.user)
	tot.delta.addDelta(before, after)
	if o.isWrite() {
		tot.writes++
	} else if !r.failed {
		key := rp.cacheKey(o)
		tot.cacheGet += rp.dur(rp.tr.time(r.root, "serve", "serve.cache_get", func() { fx.cache.Get(key) }))
	}
}

// beneath replays what the handler calls directly: the journal for a
// write, the pipeline for a query the cache missed, the SPARQL executor for
// a missed /api/v1/sparql request.
func (rp *replayer) beneath(r *tracedReq) (err error) {
	tr, tot, o := rp.tr, &rp.tot, r.op
	switch {
	case r.failed || (r.hit && !o.isWrite()):
	case o.isWrite():
		r.below, err = rp.replayWrite(r.root, o)
	case o.kind == opSPARQL:
		var run sparqlRun
		if run, err = rp.sparqlStream(r.root, o.user, o.text, true); err == nil {
			r.sparql, r.below = []sparqlRun{run}, rp.dur(run.span)
		}
	default:
		r.core = tr.time(r.root, "core", "core.query", func() {
			_, r.stats, err = rp.parallel.QueryStatsContext(context.Background(), o.user, o.text)
		})
		if err != nil {
			return err
		}
		r.below = rp.dur(r.core)
		tot.misses++
		tot.coreWall += r.below
		tot.join += r.stats.Join
		tot.final += r.stats.FinalSQL
		tot.unattr += r.below - r.stats.Total()
		tot.baseRows += r.stats.BaseRows
		tot.finalRows += r.stats.FinalRows
		if r.stats.ParallelFallback != "" {
			tot.fallbacks++
		}
	}
	tot.overhead += max(0, r.took-r.below)
	return err
}

// stages replays the parts of a pipeline run: SESQL parse, base SQL (noting
// the foreign scans it makes) and each SPARQL query.
func (rp *replayer) stages(r *tracedReq) (err error) {
	if r.core == 0 {
		return nil
	}
	tr, tot, o := rp.tr, &rp.tot, r.op
	tot.parse += rp.dur(tr.time(r.core, "sesql", "sesql.parse", func() { _, err = sesql.Parse(o.text) }))
	if err != nil {
		return err
	}
	rp.scanLog = &r.scans
	r.base = tr.time(r.core, "sqlexec", "sqlexec.base", func() { _, err = rp.fx.db.Query(r.stats.BaseSQLText) })
	rp.scanLog = nil
	if err != nil {
		return fmt.Errorf("base sql %q: %w", r.stats.BaseSQLText, err)
	}
	tot.base += rp.dur(r.base)
	for _, q := range r.stats.SPARQLQueries {
		run, err := rp.sparqlStream(r.core, o.user, q, false)
		if err != nil {
			return err
		}
		r.sparql = append(r.sparql, run)
	}
	return nil
}

// leaves replays what the stages read: foreign scans against the same fdw
// server, and the enumeration of each SPARQL triple pattern over the view.
func (rp *replayer) leaves(r *tracedReq) (err error) {
	tr, tot, o := rp.tr, &rp.tot, r.op
	keep := func([]sqlval.Value) bool { return true }
	for _, sc := range r.scans {
		tot.fdwT += rp.dur(tr.time(r.base, "fdw", "fdw.scan "+sc.table.Name(), func() {
			if sc.eqCol == "" {
				err = sc.table.Scan(keep)
			} else {
				err = sc.table.ScanEq(sc.eqCol, sc.eqVal, keep)
			}
		}))
		if err != nil {
			return err
		}
	}
	if len(r.sparql) > 0 {
		view, err := rp.fx.platform.View(o.user)
		if err != nil {
			return err
		}
		for _, run := range r.sparql {
			var patterns []rdf.Pattern
			collectPatterns(run.plan.Query().Where, &patterns)
			for _, p := range patterns {
				tot.matchT += rp.dur(tr.time(run.span, "rdf", "rdf.match "+p.String(), func() { tot.matched += matchIDs(view, p) }))
			}
		}
	}
	return err
}

// again runs the pipeline once more at Parallelism 1, outside any budget
// and in a phase of its own, so that it starts as cold as the run it is
// compared with.
func (rp *replayer) again(r *tracedReq) (err error) {
	if r.core != 0 {
		rp.tot.parallelT += rp.dur(r.core)
		rp.tot.serialT += rp.dur(rp.tr.time(0, "aux", "core.query parallelism=1", func() { _, _, err = rp.serial.QueryStats(r.op.user, r.op.text) }))
	}
	return err
}

// sparqlStream replays one SPARQL query over the user's view. Pipeline
// queries run from a compiled plan, as the enricher's plan cache has them; a
// query sent to /api/v1/sparql is parsed and compiled inside the span, as
// that route does per request.
func (rp *replayer) sparqlStream(parent int, user, text string, endpoint bool) (sparqlRun, error) {
	view, err := rp.fx.platform.View(user)
	if err != nil {
		return sparqlRun{}, err
	}
	plan := rp.plans[text]
	compile := func() error {
		q, err := sparql.Parse(text)
		if err == nil {
			plan, err = sparql.Compile(q)
		}
		return err
	}
	if plan == nil && !endpoint {
		if err := compile(); err != nil {
			return sparqlRun{}, err
		}
		rp.plans[text] = plan
	}
	n := 0
	id := rp.tr.time(parent, "sparql", "sparql.stream", func() {
		if endpoint {
			err = compile()
		}
		if err == nil {
			err = plan.Stream(view, func(sparql.Solution) bool { n++; return true })
		}
	})
	if err != nil {
		return sparqlRun{}, err
	}
	rp.tot.sparqlT += rp.dur(id)
	rp.tot.sparqlQueries++
	rp.tot.solutions += n
	return sparqlRun{id, plan}, nil
}

// matchIDs enumerates the pattern over the view's encoded layer, as the
// SPARQL executor does, and returns how many triples matched.
func matchIDs(view rdf.Graph, p rdf.Pattern) (n int) {
	view.(rdf.IDGraph).ReadIDs(func(r rdf.IDReader) {
		var ids rdf.PatternIDs
		for _, bind := range []struct {
			t  rdf.Term
			id *rdf.TermID
		}{{p.S, &ids.S}, {p.P, &ids.P}, {p.O, &ids.O}} {
			if bind.t.IsZero() {
				continue
			}
			id, ok := r.IDOf(bind.t)
			if !ok {
				return // a term the store never interned matches nothing
			}
			*bind.id = id
		}
		r.ForEachIDs(ids, func(_, _, _ rdf.TermID) bool { n++; return true })
	})
	return n
}

// collectPatterns lists the store patterns a group's triple patterns
// enumerate: constants stay bound, variables are open, and a closure walks
// every edge of its predicate.
func collectPatterns(g *sparql.Group, out *[]rdf.Pattern) {
	if g == nil {
		return
	}
	for _, el := range g.Elems {
		switch e := el.(type) {
		case sparql.TriplePattern:
			var p rdf.Pattern
			if !e.S.IsVar() {
				p.S = e.S.Term
			}
			if !e.O.IsVar() {
				p.O = e.O.Term
			}
			path := e.P
			if c, ok := path.(sparql.PathClosure); ok {
				path, p.S, p.O = c.P, rdf.Term{}, rdf.Term{}
			}
			if iri, ok := path.(sparql.PathIRI); ok {
				p.P = iri.IRI
			}
			*out = append(*out, p)
		case sparql.Optional:
			collectPatterns(e.Group, out)
		case sparql.Union:
			collectPatterns(e.Left, out)
			collectPatterns(e.Right, out)
		}
	}
}

// replayWrite repeats an insert or retract: through the journal (on a
// scratch statement, so the live state ends where the handler left it), and
// beneath that on the unjournaled twin platform. It returns how long the
// journaled call took.
func (rp *replayer) replayWrite(root int, o *op) (time.Duration, error) {
	tr, tot, j, user := rp.tr, &rp.tot, rp.fx.journal, o.user
	scratch := rdf.Triple{S: dataset.IRI(dataset.ElementName(0)), P: dataset.IRI("dangerLevel"), O: rdf.NewLiteral("scratch")}
	var id, twinID string
	var jid int
	var err error
	if o.kind == opInsert {
		jid = tr.time(root, "wal", "journal.insert", func() { id, err = j.Insert(user, scratch) })
		if err == nil {
			tot.kbInsert += rp.dur(tr.time(jid, "kb", "kb.insert", func() { twinID, err = rp.twin.Insert(user, scratch) }))
			tot.inserts++
		}
		if err == nil {
			err = j.Retract(user, id)
		}
		if err == nil {
			err = rp.twin.Retract(user, twinID)
		}
	} else {
		if id, err = j.Insert(user, scratch); err == nil {
			twinID, err = rp.twin.Insert(user, scratch)
		}
		if err == nil {
			jid = tr.time(root, "wal", "journal.retract", func() { err = j.Retract(user, id) })
		}
		if err == nil {
			tot.kbRetract += rp.dur(tr.time(jid, "kb", "kb.retract", func() { err = rp.twin.Retract(user, twinID) }))
			tot.retracts++
		}
	}
	if err != nil {
		return 0, err
	}
	tot.journalT += rp.dur(jid)
	return rp.dur(jid), nil
}

// traceWorkload is the traced run: one client, the handler called without
// a socket. After the usual set-up, client 0's sequence continues in
// process: an untraced pass over its first requests gives the handler's own
// latency, then the traced pass serves each of the next ones and replays
// them layer by layer. seconds caps the traced pass. It reports the
// per-layer metrics and writes the spans to spansPath, if given.
func traceWorkload(w *workload, seed int64, seconds int, spansPath string) (*result, error) {
	rng := rand.New(rand.NewSource(seed))
	var ops [numClients]clientOps
	fx, clients, _, err := setUp(w, &ops, rng)
	if err != nil {
		return nil, err
	}
	defer fx.removeDir()
	defer fx.close()

	rp := &replayer{fx: fx, tr: &tracer{}, plans: map[string]*sparql.Plan{}}
	rp.parallel = core.New(fx.db, fx.platform, nil)
	rp.serial = core.New(fx.db, fx.platform, nil)
	rp.serial.SetExecOptions(core.ExecOptions{Parallelism: 1})
	if fx.journal != nil {
		if rp.twin, err = buildPlatform(fx.spec); err != nil {
			return nil, err
		}
	}
	if fx.fdwCli != nil {
		// Swap the foreign tables for recording stand-ins. The schema epoch
		// moves, as it would on any re-attach.
		for _, name := range []string{"landfill", "elem_contained"} {
			rel, err := fx.db.Catalog().Resolve(name)
			if err != nil {
				return nil, err
			}
			if err := fx.db.Catalog().DropTable(name, false); err != nil {
				return nil, err
			}
			if err := fx.db.RegisterForeign(scanRecorder{rel.(*fdw.ForeignTable), rp}); err != nil {
				return nil, err
			}
		}
	}

	// Client 0 (which, in a churn workload, holds the ids of its live
	// statements) goes on in process.
	c, seq, n := clients[0], ops[0].seq, tracedRequests[w.name]
	ht := &handlerTransport{h: fx.handler}
	c.hc = &http.Client{Transport: ht}
	if 2*n > len(seq) {
		return nil, fmt.Errorf("sequence of %d requests is too short to trace %d", len(seq), n)
	}
	untraced := make([][]float64, len(w.shapes))
	for i := 0; i < n; i++ {
		c.do(&seq[i], false)
		untraced[seq[i].shape] = append(untraced[seq[i].shape], float64(ht.took))
	}
	// The replay enrichers must have seen what the server's has: a miss in a
	// fuller plan cache costs more (the SQL plan map is swept on every
	// miss), so an emptier cache would make the replays too cheap.
	for _, enr := range []*core.Enricher{rp.parallel, rp.serial} {
		for _, cl := range clients {
			for _, s := range cl.log {
				if s.op.kind == opQuery {
					if _, err := enr.Query(s.op.user, s.op.text); err != nil {
						return nil, err
					}
				}
			}
		}
	}

	// Requests are traced in batches: serve a batch, then replay it phase by
	// phase. A batch is large enough to push a request's rows out of the
	// processor caches before its replay, and short enough that the box's
	// slow drift in speed hits a request and its replays alike.
	rp.tr.t0 = time.Now()
	deadline := rp.tr.t0.Add(time.Duration(seconds) * time.Second)
	traced := make([][]float64, len(w.shapes))
	batch := max(n/12, 2*len(w.shapes))
	for i := n; i < 2*n && time.Now().Before(deadline); i += batch {
		var reqs []*tracedReq
		for j := i; j < min(i+batch, 2*n); j++ {
			r := &tracedReq{id: j - n + 1, op: &seq[j]}
			rp.tr.request = r.id
			rp.serve(c, ht, w.shapes[r.op.shape], r)
			traced[r.op.shape] = append(traced[r.op.shape], float64(r.took))
			reqs = append(reqs, r)
		}
		for _, phase := range []func(*tracedReq) error{rp.beneath, rp.stages, rp.leaves, rp.again} {
			for _, r := range reqs {
				rp.tr.request = r.id
				if err := phase(r); err != nil {
					return nil, fmt.Errorf("replay %s: %w", w.shapes[r.op.shape], err)
				}
			}
		}
	}
	if rp.tot.n < n {
		fmt.Printf("traced %d of %d requests before time ran out\n", rp.tot.n, n)
	}

	or, err := newOracle(fx)
	if err != nil {
		return nil, err
	}
	if err := or.verify(clients[:1]); err != nil {
		return nil, err
	}
	if spansPath != "" {
		if err := writeSpans(spansPath, rp.tr.spans); err != nil {
			return nil, err
		}
	}

	res := &result{Workload: w.name, Seed: seed, Seconds: seconds, Traced: true, Metrics: map[string]metricValue{}, Shares: map[string]float64{}}
	for i := range c.log {
		if s := &c.log[i]; s.measured {
			res.tally(w, s)
		}
	}
	tot := &rp.tot
	us := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(time.Microsecond) / float64(n)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	d := tot.delta
	set := func(name string, v float64) { res.set(perLayer, name, v, tot.n) }
	set("rest_handler_us", us(tot.handler, tot.n))
	set("rest_overhead_us", us(tot.overhead, tot.n))
	set("response_bytes", ratio(float64(tot.bytes), float64(tot.n)))
	set("cache_hit_ratio", ratio(float64(d.cache.Hits), float64(d.cache.Hits+d.cache.Misses)))
	set("cache_evictions", float64(d.cache.Evictions))
	set("cache_get_us", us(tot.cacheGet, tot.n-tot.writes))
	set("admission_shed", float64(d.shed))
	set("sesql_parse_us", us(tot.parse, tot.n))
	set("plan_cache_hit_ratio", ratio(float64(d.planHits), float64(d.planHits+d.planMis)))
	set("core_query_us", us(tot.coreWall, tot.n))
	set("core_join_us", us(tot.join, tot.n))
	set("core_final_us", us(tot.final, tot.n))
	set("core_unattributed_us", us(tot.unattr, tot.n))
	set("sqlexec_base_us", us(tot.base, tot.n))
	set("rows_examined_per_result", ratio(float64(tot.baseRows), float64(tot.finalRows)))
	set("sparql_us", us(tot.sparqlT, tot.n))
	set("sparql_queries_per_request", ratio(float64(tot.sparqlQueries), float64(tot.n)))
	set("sparql_solutions", ratio(float64(tot.solutions), float64(tot.n)))
	set("rdf_match_ns_per_triple", ratio(float64(tot.matchT), float64(tot.matched)))
	set("rdf_view_triples", ratio(float64(tot.viewTriples), float64(tot.n)))
	set("kb_insert_us", us(tot.kbInsert, tot.inserts))
	set("kb_retract_us", us(tot.kbRetract, tot.retracts))
	set("journal_write_us", us(tot.journalT, tot.writes))
	set("wal_bytes_per_write", ratio(float64(d.walBytes), float64(d.walAppends)))
	set("wal_appends", float64(d.walAppends))
	set("wal_syncs", float64(d.walSyncs))
	set("fdw_scan_us", us(tot.fdwT, tot.n))
	set("fdw_rows", ratio(float64(d.fdwRows), float64(tot.n)))
	set("fdw_round_trips", ratio(float64(d.fdwReqs), float64(tot.n)))
	set("fdw_retries", float64(d.fdwRetries))
	set("parallel_speedup", ratio(float64(tot.serialT), float64(tot.parallelT)))
	set("parallel_fallback_share", ratio(float64(tot.fallbacks), float64(tot.misses)))
	set("trace_overhead", ratio(geomeanOfMedians(traced), geomeanOfMedians(untraced)))

	var selfSum time.Duration
	byLayer := map[string]time.Duration{}
	folded := aggregate(rp.tr.spans)
	self := selfTimes(folded)
	for _, s := range folded {
		if s.Layer != "aux" {
			byLayer[s.Layer] += self[s.ID]
			selfSum += self[s.ID]
		}
	}
	for layer, t := range byLayer {
		res.Shares[layer] = ratio(float64(t), float64(tot.handler))
	}
	set("layer_self_sum_ratio", ratio(float64(selfSum), float64(tot.handler)))
	return res, nil
}

func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
