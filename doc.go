// Package crosse is a from-scratch Go reproduction of "Contextually-Enriched
// Querying of Integrated Data Sources" (Cavallo, Di Mauro, Pasteris, Sapino,
// Candan — ICDE 2018): the CroSSE platform and its SESQL query language,
// in which a relational databank is enriched at query time with per-user
// crowdsourced RDF context.
//
// The root package only anchors the repository-level benchmarks
// (bench_test.go); the system lives under internal/:
//
//	internal/core     the Fig. 6 enrichment pipeline (the paper's contribution)
//	internal/sesql    the SESQL language front-end (Fig. 5 grammar)
//	internal/kb       crowdsourced knowledge bases (Fig. 4 schema)
//	internal/sparql   SPARQL subset engine
//	internal/rdf      indexed triple store
//	internal/engine   embedded relational database (SQL parser + executor)
//	internal/fdw      foreign-data-wrapper federation (postgres_fdw role)
//	internal/rest     HTTP/JSON integration API
//	internal/dataset  synthetic SmartGround databank + ontologies
//	internal/experiments  the measurement study (run by cmd/crosse-experiments)
//
// # Storage and query-compilation architecture
//
// The triple store (internal/rdf) is dictionary-encoded: every distinct RDF
// term is interned once into a dense uint32 ID (rdf.Dict), and the three
// permutation indexes (SPO, POS, OSP) plus a flat membership set are keyed
// on those IDs. Pattern cardinalities — the probes the SPARQL join orderer
// issues per candidate pattern — are answered in O(1) from per-sub-index
// counters and set lengths, never by enumeration. The encoded layer is
// public: rdf.PatternIDs / Store.ForEachIDs / Store.CountIDs match and
// count without decoding a single term, Dict.TermOf / Dict.IDOf translate
// at the edges, and Store.ReadIDs opens a one-lock read transaction whose
// rdf.IDReader serves nested probes lock-free — the access shape of a join.
//
// Per-user knowledge bases are overlay views over one shared arena
// (rdf.SharedStore + rdf.View): the platform interns and indexes every
// asserted triple exactly once — one dictionary, one set of refcounted
// union indexes — and each user's view holds only ID-level state, a
// membership set of encoded rdf.TripleKeys plus per-view counters that
// answer every pattern-cardinality shape in O(1). Importing a peer's
// belief is therefore a handful of small-key map updates (no term is ever
// re-hashed), N users sharing a corpus cost O(corpus) string memory plus
// compact per-view overlays, and view iteration picks the cheaper side per
// pattern: the shared posting list filtered by membership, or the
// membership set filtered by the pattern. Views implement rdf.Graph and
// rdf.IDGraph, so everything below this paragraph applies to them
// unchanged; mutations take the arena or view write lock briefly and never
// invalidate an in-flight read transaction, which lets queries over
// distinct users' views run concurrently.
//
// SPARQL evaluation (internal/sparql) is a compiled, ID-native, streaming
// executor. sparql.Compile lowers a parsed query into an immutable physical
// Plan: every variable gets a dense slot index, triple patterns and
// property paths reference slots plus a shared constant table, FILTER
// expressions become slot-resolved evaluator trees with constant regex()
// patterns precompiled (invalid ones fail at compile time), and projection,
// ORDER BY and DISTINCT are resolved to slot lists. A solution in flight is
// a []rdf.TermID row, not a string-keyed map: BGP joins run as a push-based
// backtracking pipeline under one Store.ReadIDs transaction, filters
// execute at the first join step where their variables are bound, DISTINCT
// deduplicates on projected ID tuples, ASK and LIMIT-without-ORDER-BY
// terminate the pipeline early, and terms are decoded only at projection.
// Plan.Stream is the one result path (no Binding maps); Eval/EvalQuery
// are thin wrappers that collect the stream into map-based Bindings for
// tools and tests.
//
// SQL evaluation (internal/sqlexec) mirrors the same design on the
// relational side. sqlexec.Compile lowers a parsed SELECT once into an
// immutable physical SelectPlan: every column reference resolves to a
// dense row-slot offset at compile time, expressions become slot-resolved
// evaluator trees (constant LIKE patterns pre-lowered to segment
// matchers), WHERE splits into conjuncts bound to the earliest pipeline
// step whose sources cover them, equality-against-constant conjuncts push
// into sqldb hash-index seeks (Table.ScanEq) — or, for foreign tables,
// ship to the remote node over the FDW protocol — equi-joins run as hash
// joins whose build side is chosen from live cardinalities, and ORDER BY
// + LIMIT keeps a bounded stable top-K heap instead of sorting the world.
// Execution is a push-based pipeline over one reused row buffer with
// arena-backed materialisation only at the sink; LIMIT without ORDER BY
// stops the pipeline early. Plan ablation knobs (hash joins, index seeks,
// top-K) live in sqlexec.Options — per call, not a package global. The
// seed's interpreter survives as the reference oracle the randomised
// parity suite (internal/sqlexec/parity_test.go) pins the compiled
// semantics to.
//
// # Intra-query parallel execution
//
// Both executors share a morsel-driven scheduler (internal/exec): the
// query's driving input — the base-table scan on the SQL side, the head
// pattern's posting list on the SPARQL side — is materialised once in
// serial enumeration order and partitioned into fixed-size morsels; a
// bounded worker pool claims morsel indexes from an atomic counter and
// each worker runs the full compiled pipeline (joins, filters,
// projection) with private execution state, against shared state frozen
// before the first worker starts (hash tables and materialised join
// sides in SQL, the resolved constant table and one read transaction in
// SPARQL — which requires an rdf.ConcurrentReader, a reader whose probes
// are pure reads under the transaction lock). SQL heap tables implement
// sqldb.StableRowScanner — scanned rows are immutable in place, updates
// replace rows wholesale — so materialisation retains the stored rows
// zero-copy. Output is buffered per morsel (or stamped with its
// (morsel, sequence) arrival position) and merged in morsel order, which
// makes the parallel result byte-identical to the serial one: same rows,
// same order, same ties, same first error.
//
// Every parallel reduction follows one rule: workers may compute their
// partials in any interleaving, but partials FOLD in morsel order, and
// float folds are Neumaier-compensated — so the reduction is not merely
// order-insensitive "close enough" arithmetic but reproduces the serial
// accumulation bit for bit. Under that rule every standard aggregate
// merges (COUNT/SUM as sums, MIN/MAX with arrival stamps breaking ties,
// float SUM/AVG as per-morsel compensated partials, DISTINCT aggregates
// as first-occurrence maps keeping the earliest stamp); hash-join builds
// partition the build side and merge per-worker bucket maps in morsel
// order, a scatter and an assemble stage separated by a barrier — which
// is nothing more than two consecutive exec.Pool.Run calls, since Run
// returns only when every claimed morsel has finished (with one worker it
// is an inline loop on the calling goroutine); every ORDER BY merge — SQL
// per-worker top-K heaps or full-sort runs, SPARQL per-morsel buffers, and
// the serial SPARQL sort as one run — goes through exec.MergeSorted, which
// sorts the runs concurrently and streams a loser-tree merge (ties to the
// lower run, the earlier morsel — exactly the serial stable sort) into a
// yield that stops at LIMIT; SPARQL property-path heads materialise the
// path frontier once and fan the pairs out like any posting list; and a
// pool built with a LIMIT target cuts the remaining morsels once
// Pool.Done sees a contiguous completed-morsel prefix holding enough
// rows. Shapes that still cannot merge exactly fall back to
// serial — ASK (first match wins), non-mergeable aggregate functions,
// foreign-table scans, graph readers without rdf.ConcurrentReader, and
// inputs below the morsel threshold where fan-out costs more than it
// wins — and every fallback names its reason:
// sqlexec/sparql Result.ParallelFallback (and the streaming StreamInfo)
// carry it per query, core.Stats.ParallelFallback aggregates the stages
// that run a plan ("base-sql: ...", "sparql: ..."; the final stage is a
// sort of rows already in memory and has no entry), and the REST stats
// object surfaces it as parallel_fallback on /query and /sparql alike, so
// "why didn't this query parallelise" is an API field, not a profiling
// session. The knob is sqlexec.Options.Parallelism /
// sparql.Options.Parallelism / core.ExecOptions.Parallelism, set through
// core.Enricher.SetExecOptions (0 = GOMAXPROCS, 1 = serial); parity
// suites run every test at 1, 2 and 4 workers, and a determinism suite
// requires ORDER BY (+ OFFSET/LIMIT) output to be byte-identical across
// parallelism levels on tie-heavy keys.
//
// The enrichment pipeline (internal/core) compiles each SESQL *shape*
// once. sesql.Shape lexes a text in one pass into a shape key — the text
// with every literal of WHERE, ON and HAVING (tagged conditions included)
// replaced by a typed slot, ?1:str, ?2:int, ?3:float — and the vector of
// those literals. Select-list literals (they name headers), ORDER BY,
// LIMIT/OFFSET (they size the top-K), LIKE patterns (pre-compiled), IN-list
// lengths and the whole ENRICH clause stay in the key. A shape compiles
// once per (shape, sqlexec.Options, schema epoch) into a plan holding the
// parsed template, the base SELECT after the enrichment rewrite, its
// sqlexec SelectPlan with slot nodes, the WHERE-enrichment predicates and
// the constructed SPARQL texts; a request binds its literal vector into it
// (SelectPlan.Bind copies only the nodes on a path to a slot, so the
// template stays shared and immutable) and splices the literals into the
// pre-rendered base SELECT for core.Stats.BaseSQLText. Compile decisions
// that depend on a constant's value are made from the slot's type: a slot
// seeks an index only when it has the column's type. Texts Shape declines
// (comments, odd quoting) and shapes whose template cannot compile are
// their own shapes, keyed on the whole text. SPARQL plans are keyed on
// their exact text and hold structure only — slot table, join-ready
// patterns, precompiled regexes, never data or dictionary IDs — so
// knowledge-base mutations never invalidate them and one plan serves
// every user's view concurrently. A shape plan binds the catalog (relation
// handles, index choices), so it records sqldb.Database.SchemaEpoch and is
// checked against it at hit time: after any DDL — CREATE/DROP TABLE,
// CREATE INDEX, foreign registration — the stale plan stops answering and
// the next miss replaces it, while data mutations never invalidate.
//
// Every cache in the system is one lru.Cache: an LRU bounded by entries
// and, optionally, by a size function with a budget, with atomic
// hit/miss/eviction counters and validity checked by the caller at hit
// time. Nothing sweeps a map and nothing is dropped wholesale; a stale
// entry is replaced on its next miss or ages out. serve.Cache (the
// enriched-result cache), the shape and SPARQL plan caches and the
// context-extract memo below are its instances (see QueryCache).
//
// The ontology side of an enrichment depends on the user's knowledge base,
// the property (or stored query) and the resource mapping — never on the
// SQL literals. So the same cache also memoises each context extract (the
// subject→objects pairs, concept members or replacement values a SPARQL
// query yields), keyed on the user's view handle, the extract kind, the
// SPARQL text and the mapping, and valid at one kb.Platform.ViewEpoch. The
// epoch is read once per evaluation before the first extract, as the REST
// result cache reads it: every mutation of the user's context moves it,
// so a stale entry never answers, and an extract racing a mutation is
// stranded under the old epoch. Keying on the view handle rather than the
// user name means a platform swapped under the enricher shares nothing
// with the old one. The memo holds at most the cache's entry bound and a
// fixed number of retained values, evicting the coldest extracts. A hit
// runs no SPARQL query and renders no SPARQL text (the constructed texts
// live in the compiled shape): core.Stats.SPARQLQueries lists only the
// queries that ran and core.Stats.ContextHits counts the reuses.
//
// The pipeline ends in place. The paper's Fig. 6 hands the joined rows to
// a temporary support database and runs a "final query" there; here the
// workset already sits in the same process as the SQL executor's compiled
// comparator, so the final stage projects the visible columns (dropping
// the hidden ones WHERE enrichments add) and, when ORDER BY / LIMIT /
// OFFSET had to wait for enrichment, sorts and slices the rows directly
// (sqlexec.SortLimit: keys compiled once against the result headers,
// stable, the same key comparison every other ORDER BY in the system
// uses). The tail waits when a WHERE enrichment filters rows after the
// base query or when an ORDER BY key names a column a schema enrichment
// adds; otherwise it stays in the base query and keeps the top-K
// pushdown. Values keep the types the ontology gave them — nothing is
// coerced to a column type on the way out. core.Stats.FinalSQLText
// ("final_sql" over REST) renders the stage as the SELECT ... FROM
// sesql_result ORDER BY ... of Fig. 6 so the correspondence stays
// visible; it is a description, no SQL text is parsed or run.
//
// # Persistence and recovery
//
// The platform is durable through versioned binary snapshots that serialise
// the encoded layer directly (format version 1). rdf.SharedStore.WriteSnapshot
// writes the dictionary term table and every asserted triple as its raw
// TripleKey plus assertion refcount; rdf.View.WriteSnapshot writes a view's
// membership set as raw keys; kb.Platform.Snapshot frames those together
// with statements (provenance, believers, references), stored queries,
// vocabulary declarations and the id counter; and core.WriteImage combines
// the kb snapshot with the engine's SQL dump into one checksummed
// (CRC-32) platform image — core.ReadImage / kb.Restore /
// rdf.ReadSharedSnapshot are the inverses. Restore is a bulk ID-level load:
// triples and view members come back as integer keys inserted into presized
// maps, per-view counters are rebuilt in the same pass, statement triples
// decode from the restored dictionary, and only the dictionary's intern
// maps hash strings — once per distinct term, not per triple. Cold-starting
// a 100k-triple multi-user platform from a snapshot is roughly an order of
// magnitude faster than rebuilding it from the reified N-Triples export
// (BenchmarkSnapshotLoad), and equal believer sets are shared across
// restored statements under the copy-on-write discipline.
//
// Between images, a write-ahead log (internal/wal + core.Journal) bounds
// data loss to the acknowledged operation. The log is an append-only
// stream of CRC-32-framed, length-prefixed records over the snapshot
// codec's varint conventions; records carry no explicit LSN (record i of
// a log whose header anchors startLSN s has LSN s+i+1, gap-free by
// construction). Every platform mutation routed through a core.Journal
// applies in memory and appends exactly one record under one lock — so
// log order is application order and replay reproduces statement ids —
// then waits for durability outside the lock, which lets one fsync
// acknowledge every record appended while the previous fsync was in
// flight (group commit; wal.SyncPolicy selects fsync-per-ack, periodic
// fsync, or none). Platform images are LSN-anchored (format version 2):
// recovery loads the newest image and replays exactly the records past
// its anchor. A torn tail — a final record cut off mid-frame or failing
// its checksum at end of file — is crash residue of an unacknowledged
// append and is silently truncated; damage with intact records after it
// is bit rot and fails loudly (wal.ErrCorrupt). Compaction
// (Journal.Compact) writes a fresh image at the current LSN and then
// atomically rotates in an empty log anchored there, so a crash between
// the two steps only leaves records the new image already shadows. Any
// append/fsync failure wedges the journal permanently rather than let
// in-memory state run ahead of the durable log. The guarantees are
// enforced twice: a fault-injection property suite
// (internal/core/crash_test.go over wal.MemFS + wal.FaultFS) crashes
// randomized workloads at arbitrary write/sync boundaries in-process,
// and cmd/walcheck + the CI wal-crash-recovery job kill -9 a real
// serving process mid-workload and diff recovery against exactly the
// acknowledged operations.
//
// Operationally, cmd/crosse-server runs journaled with -wal DIR (with
// -wal-sync always|interval|never and periodic -compact-interval), or
// with image-only persistence via -snapshot: it loads the image on boot
// when the file exists, saves atomically on SIGINT/SIGTERM and every
// -snapshot-interval, exits non-zero when the shutdown save fails (a
// second signal forces immediate exit), and the REST layer exposes
// GET /api/v1/admin/snapshot (stream a backup), POST
// /api/v1/admin/snapshot (persist to the configured path), GET
// /api/v1/admin/wal (log position and sync counters) and POST
// /api/v1/admin/compact. cmd/snapcheck proves
// cold-start recovery in CI: it saves an image plus recorded probe
// results, restores in a fresh process, and diffs SESQL/SPARQL results
// and pattern counts.
//
// # Federation and fault tolerance
//
// Remote databanks attach over the FDW protocol (internal/fdw, the
// postgres_fdw role) as foreign tables the SQL executor scans like local
// ones, with equality predicates pushed to the remote node. Every message
// is a length-prefixed frame over buffered I/O: requests and terminal
// answers are small JSON control frames, and rows travel as binary
// batches (tagged values, lossless for NaN, ±Inf and non-UTF-8 text) that
// grow 1, 2, 4, … rows up to 32 KiB, each flushed as it fills, so the
// first row arrives after one row of remote work. The client decodes
// every row into one reused slice, which is why foreign tables are not
// sqldb.StableRowScanners. The client is resilient by default. Every round trip — send, stream, drain — runs
// under a deadline (Config.RequestTimeout, default 30s, tightened per call
// by the caller's context and enforced through net.Conn.SetDeadline, so a
// stalled peer costs one deadline, never a hung query; context
// cancellation fires the connection deadline immediately). Transient
// transport failures (dial refused, reset, torn stream) retry with capped
// exponential backoff plus jitter on a fresh connection (Config.Retry);
// the protocol is stateless per request, so re-dialling re-attaches the
// session transparently and foreign tables keep working across peer
// restarts. Retries only happen while no row has reached the consumer —
// a stream that fails after delivering rows surfaces fdw.ErrInterrupted
// rather than silently duplicating or truncating — and remote application
// errors (the peer answered in-protocol) never retry and never poison the
// connection. A per-source circuit breaker (closed/open/half-open,
// Config.Breaker) opens after FailureThreshold consecutive failures; while
// open, operations fail fast with fdw.ErrSourceDown (no network touch)
// until the probe interval admits one request as the half-open probe,
// whose success readmits the source. fdw.Health registers every attached
// client, pings each on an interval (the probe that heals an open circuit
// with no query traffic), and exposes per-source state, the error holding
// the circuit open, and request/retry/trip counters.
//
// Degradation is a query-level choice: by default a query touching a
// down source fails fast with a typed error (REST answers 503), while
// sqlexec.Options.PartialResults — crosse-server -partial-results — skips
// scans that fail with sqldb.ErrSourceDown and reports the skipped source
// names on the result (Result.SkippedSources, core.Stats.SkippedSources,
// "degraded_sources" in the REST response), so a federated query over N
// registries survives one dark registry and says exactly what is missing.
// Operationally, GET /healthz is the liveness probe (200 while the node
// serves queries, 503 only when the journal is wedged; degraded sources
// mark status "degraded" without failing the probe) and
// GET /api/v1/admin/sources dumps the full per-source resilience state. The
// guarantees are enforced twice: a randomized fault-injection property
// suite (internal/fdw/fault_test.go over fdw.FaultConn — latency, wrong
// errors, short writes, hangups and blackholes injected at arbitrary
// connection operations, which count whole frames: one write per request,
// one read per flushed batch) asserts every trial ends within its
// deadline with either the complete correct result or a typed error, and
// that each trial's fault fired during its first scan; FuzzFDWFrame
// holds the frame reader and batch decoder to typed errors. The CI
// fdw-fault-injection job kill -9s a real fdw-server mid-scan, watches
// the circuit open over the REST API, verifies the degraded partial
// response, and verifies the half-open probe readmits the restarted node.
//
// # Serving tier
//
// The REST surface (internal/rest) is versioned: the public API lives
// under /api/v1/... and nowhere else, and every error
// response is a uniform {"error": {code, message, details}} envelope with
// a typed error→status mapping (kb.ErrUnknownUser/ErrNoStatement → 404,
// kb.DupError → 409, serve.ErrOverloaded → 429, fdw.ErrSourceDown and
// core.ErrWedged → 503, parse/validation → 400). Collection endpoints
// paginate with limit/offset plus a pre-pagination total (default 100,
// max 1000). Execution options are unified in core.ExecOptions — one
// struct projected into sqlexec.Options and sparql.Options — instead of
// per-package plumbing, and both query endpoints run under them: /sparql
// evaluates through core.Enricher.SPARQL, on the same cached plans as the
// pipeline's own ontology queries. docs/API.md is the contract; the CI api-contract
// job boots the real binary and fails on envelope drift.
//
// In front of the handlers sits internal/serve, the heavy-traffic tier:
//
//   - An enriched-result cache (serve.Cache, LRU bounded by entries and
//     bytes) keyed on (user, query text, language, options, view epoch,
//     schema epoch). kb.Platform maintains the view epoch: every
//     mutation that can change what a user's enrichment sees —
//     Insert, Import, Retract (an owner retract bumps every believer),
//     personal stored-query registration; shared stored queries bump a
//     global component — advances it, so invalidation is free: stale
//     entries become unreachable and age out rather than being hunted
//     down. The epoch is read before evaluation, so a mutation landing
//     mid-query strands that entry under the old epoch instead of
//     serving pre-mutation rows under the new one. Degraded federated
//     results are never cached (circuit state is not covered by epochs).
//     Every query response reports stats.cache_hit and stats.elapsed_us.
//   - Per-endpoint request metrics (serve.Metrics): request counts,
//     in-flight gauges, status classes and fixed-bucket latency
//     histograms (p50/p95/p99), exposed at GET /api/v1/metrics together
//     with cache, admission, plan-cache, circuit and WAL state.
//   - Admission control (serve.Limiter) on the query-execution
//     endpoints: at most -max-inflight requests execute, at most
//     -inflight-queue wait, the rest shed immediately as typed 429s —
//     saturation degrades into fast rejections instead of a goroutine
//     pile-up.
//
// BenchmarkServeLoad (serve_bench_test.go) drives the real HTTP handler
// with simulated users under cached-repeat, uncached and mixed
// query/mutate workloads; its QPS lands in BENCH.json next to the ns/op
// trajectory. On the CI-class dev box the cached-repeat workload serves
// ~10x the uncached QPS, and a -race suite hammers cached queries
// against journaled mutations asserting read-your-writes.
//
// See docs/API.md for the REST contract, ROADMAP.md for the state of the
// system and open directions, CHANGES.md for per-PR detail and
// benchmark/README.md for the request-level benchmark.
package crosse
