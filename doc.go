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
//	internal/kb       crowdsourced knowledge bases (Fig. 4 platform state)
//	internal/sparql   SPARQL subset engine
//	internal/rdf      indexed triple store
//	internal/engine   embedded relational database (SQL parser + executor)
//	internal/fdw      foreign-data-wrapper federation (postgres_fdw role)
//	internal/rest     HTTP/JSON integration API
//	internal/dataset  synthetic SmartGround databank + ontologies
//
// # Storage and query-compilation architecture
//
// The triple store (internal/rdf) is dictionary-encoded: every distinct RDF
// term is interned once into a dense uint32 ID (rdf.Dict), and every
// asserted triple holds a dense uint32 ordinal. The three permutation
// indexes (SPO, POS, OSP) are postings of ordinals, in a dense array
// indexed by the leading term ID and in a map keyed by the packed leading
// pair, so a pattern with one or two positions bound is one lookup and its
// cardinality — the probe the SPARQL join orderer issues per candidate
// pattern — is that posting's length, never an enumeration. (A pair whose
// leading ID heads at most eight triples scans that short posting
// instead: the dense array follows the dictionary's insertion order, a
// hashed probe does not.) Each ordinal records its slot in its six
// postings, so a release swap-removes it in O(1) whatever the fan-out, and
// its ordinal is recycled. There is one store, the arena (rdf.SharedStore), and
// rdf.Graph has one method: ReadIDs opens a read transaction whose
// rdf.IDReader serves nested probes lock-free — the access shape of a
// join — matching and counting over rdf.PatternIDs without decoding a
// single term, and translating with TermOf / IDOf at the edges. The
// term-level reads (rdf.ForEach, rdf.Count, rdf.MatchSorted,
// rdf.Subjects, rdf.Objects) are package functions written once over
// ReadIDs.
//
// Per-user knowledge bases are overlay views over that arena
// (rdf.SharedStore + rdf.View): the platform interns and indexes every
// asserted triple exactly once — one dictionary, one set of refcounted
// union postings — and each user's view holds only ID-level state, a paged
// bitset of the arena ordinals it holds plus its triple count per
// predicate. A bitset page is allocated by its first member and freed by
// its last, so a view costs O(its triples), not O(the arena). Importing a
// peer's belief is therefore a bit set plus one predicate-count update (no
// term is ever re-hashed), N users sharing a corpus cost O(corpus) string
// memory plus compact per-view overlays, and view iteration and counting
// pick the cheaper side per pattern: the arena's posting filtered by one
// bit test per ordinal, or the view's set bits filtered by the pattern.
// Counts stay exact, so the SPARQL join order sees the same numbers.
// Views implement rdf.Graph, so everything below this paragraph applies
// to them unchanged. The lock order is view → arena: a read transaction
// holds both read locks, a view mutation holds its view's write lock and
// the arena's read lock (to map keys to ordinals), and an arena mutation
// holds only the arena lock.
// Mutations are brief and never invalidate an in-flight read transaction,
// which lets queries over distinct users' views run concurrently. A view
// must drop a triple before the triple's last release, since its ordinal
// is then reused; the KB layer keeps that order.
//
// SPARQL evaluation (internal/sparql) is a compiled, ID-native, streaming
// executor. sparql.Compile lowers a parsed query into an immutable physical
// Plan: every variable gets a dense slot index, triple patterns and
// property paths reference slots plus a shared constant table, FILTER
// expressions become slot-resolved evaluator trees with constant regex()
// patterns precompiled (invalid ones fail at compile time; a pattern
// computed per solution compiles once per evaluation), each behind a
// literal prefilter — the longest case-sensitive literal of the pattern's
// top-level concatenation, a required suffix when `$` closes the pattern
// right after it, rejected with strings.Contains / HasSuffix before the
// regexp runs — and projection,
// ORDER BY and DISTINCT are resolved to slot lists. A filter reads
// REGEX, ! and BOUND straight as booleans, and REGEX and STR read a
// variable's lexical form (a literal's, an IRI's string, a blank node's
// label) from the dictionary without building a term per solution. A solution in flight is
// a []rdf.TermID row, not a string-keyed map: BGP joins run as a push-based
// backtracking pipeline under one Graph.ReadIDs transaction, filters
// execute at the first join step where their variables are bound, DISTINCT
// deduplicates on projected ID tuples, ASK and LIMIT-without-ORDER-BY
// terminate the pipeline early, and terms are decoded only at projection.
// Property-path closures (p+, p*, p?) are level-by-level breadth-first
// walks over IDs: the visited set is a dense bitset indexed by TermID,
// kept per executor (so each morsel worker has its own, and a closure
// nested in another's step takes a second from a small free list) and
// cleared through the words it touched, and a plain or inverted IRI step
// streams each node's neighbours from one index probe through a callback
// bound once. A walk emits nodes in discovery order, which is each node's
// shortest depth, into a pair buffer drawn from a sync.Pool and returned
// once the step (or the parallel path's morsels, which read the pairs in
// place) has read it. Following SPARQL 1.1's ALP, p+ reaches its own start
// only through a cycle, and with both ends open the walks start from
// every subject and object of the graph, so p* and p? pair each node with
// itself; the start is tracked apart from the bitset, because a constant
// the graph never interned carries a synthetic ID from the top of the ID
// space.
// Plan.Stream is the one result path (no Binding maps); Eval/Plan.Eval
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
// ship to the remote node over the FDW protocol, together with the
// scan's leading `col op constant` comparisons as a pre-filter the
// executor still applies itself — and equi-joins run as hash joins whose
// build side is chosen from live cardinalities — over one typed table per
// build (a head map per key class: a TEXT by its own bytes, a number by
// the bits of the float64 it widens to, a bool by its value, plus one
// chain array in build-row order, re-verified per candidate with
// Compare), so a build allocates the same for few or all-distinct
// keys — or as index-probe joins:
// when the first join's smaller side turns out few next to an inner local
// table with a hash index on its join column, each of its rows seeks that
// index instead of the inner table being scanned. ORDER BY + LIMIT keeps
// at most twice limit + offset rows, cut back to the best by selection,
// and every ORDER BY sorts only the window it emits.
// A WHERE/ON conjunct over row slots and constants (comparisons, BETWEEN,
// IN over constants, IS [NOT] NULL, AND/OR/NOT of those) also lowers to a
// typed kernel that evaluates it straight to a three-valued result,
// checking each operand pair's types with one switch (sqlval.TryCompare:
// one type, or an INTEGER against a DOUBLE compared as float64s) and
// handing every row it does not answer exactly — a NULL, a class
// mismatch — to the generic tree, the only source of errors. Execution is
// a push-based pipeline over one reused row buffer with arena-backed
// materialisation only at the sink: a source's own conjuncts run on the
// scanned row before it is copied into that buffer, so a rejected row is
// never copied, and a plan without joins hands the scanned row to its
// sink uncopied; LIMIT without ORDER BY stops the pipeline early. A plan
// runs only to its Result (Run / RunContext), copying each output row
// once: rows a sorter holds become the Result's when its window is at
// least half of them, and a smaller window is copied out. Every sorter
// (the plain sink, the grouped tail, Tail.Apply) then leaves what the
// Result does not hold — its sortedRow buffer, cleared, and its arena
// blocks, zeroed, all of them after a copy-out — to one sync.Pool the next
// sorter draws from, so join_sort_offset's 86k-row buffer is reused, not
// re-allocated per request; pooled scratch lives only until the next
// garbage collection. Values
// are 32 bytes (sqlval.Value: a type, one 8-byte payload for the
// integer, the float bits or the bool, and a string), and the numbers
// follow PostgreSQL's total order, NaN equal to itself and above every
// other number. INTEGER arithmetic and SUM fail with "integer out of
// range" instead of wrapping, and DOUBLE + - * / on finite operands, SUM
// and AVG with "DOUBLE out of range" where IEEE 754 would give ±Inf; SUM adds exactly in 128 bits, so only a
// final sum outside int64 fails, whatever the order of its additions.
// Each query has one plan and one driver: sqlexec.Options carries only
// the partial-results policy, never a switch between plans. Every
// production expression evaluation is compiled, INSERT … VALUES and
// UPDATE … SET included, and LIKE always runs the linear segment
// matcher, whether the pattern is a constant or computed per row. The
// package holds that one evaluator and one set of value rules.
//
// The executors' parity suites check them against internal/oracle, which
// only _test.go files import (a test in the package walks the module to
// enforce it): a materialising SQL interpreter that resolves columns by
// name per row and nested-loops every join, and a term-level SPARQL
// evaluator over string-keyed bindings and a plain triple slice. The
// oracle has its own arithmetic, scalar functions, aggregates (INTEGER
// SUM in math/big, a DOUBLE SUM or AVG exactly rounded once), LIKE
// matcher and SPARQL term order, written from PostgreSQL's and SPARQL
// 1.1's documented semantics with the dialect's deviations named, and it
// shares no code with sqlexec or sparql below the parsers, sqlval and
// sqldb. internal/sqlparser holds the one traversal
// of an expression's children (Walk, Rewrite), which the SESQL rewrite,
// the enricher and the compiler share.
//
// # Intra-query parallel execution
//
// Only the SPARQL executor runs a query on several cores. Its driving
// input, the head pattern's posting list, is materialised once in serial
// enumeration order and partitioned into fixed-size morsels; workers
// claim morsel indexes from one atomic counter (sparql/parallel.go holds
// the whole scheduler) and each runs the full compiled pipeline (joins,
// filters, projection) with private execution state, against shared state
// frozen before the first worker starts (the resolved constant table and
// one read transaction, whose rdf.IDReader probes are pure reads under
// the transaction lock). Output is buffered per morsel and replayed in
// morsel order, which makes the parallel result byte-identical to the
// serial one: same rows, same order, same ties. ORDER BY sorts once, on
// the coordinator, for both paths: the parallel path appends its morsel
// buffers in morsel order to the row arena and hands them to the serial
// sort, which decodes each row's order keys once and sorts row indexes
// with a full-row ID tiebreak. Property-path heads materialise the path
// frontier once and fan the pairs out like any posting list.
//
// The SQL executor runs every plan on one serial driver: it streams the
// driving scan through the compiled pipeline, so a LIMIT without ORDER BY
// stops the scan after the rows it needs. A morsel driver for plain and
// ORDER BY plans, a per-worker aggregation merge and a partitioned hash
// build each lost to the serial path under the benchmark harness's load,
// and were removed. SQL heap tables implement sqldb.StableRowScanner —
// scanned rows are immutable in place, updates replace rows wholesale —
// so join-side materialisation retains the stored rows zero-copy.
//
// The SPARQL shapes that run serially — ASK (first match wins), LIMIT 0,
// LIMIT without ORDER BY (the serial pipeline stops its scan at the rows
// it needs), and inputs below the morsel threshold where fan-out costs
// more than it wins — each name their reason: sparql's
// Result.ParallelFallback (and its StreamInfo) carry it per query,
// core.Stats.ParallelFallback collects the reasons of an evaluation's
// SPARQL queries ("sparql: ..."; the base SQL and the final stage always
// run serially and have no entry), and the REST stats object surfaces it as parallel_fallback on
// /query and /sparql alike, so "why didn't this query parallelise" is an
// API field, not a profiling session. The knob is
// sparql.Options.Parallelism / core.ExecOptions.Parallelism, set through
// core.Enricher.SetExecOptions (0 = GOMAXPROCS, 1 = serial); the SPARQL
// parity suites run every test at 1, 2 and 4 workers, and a determinism
// suite requires ORDER BY (+ OFFSET/LIMIT) output to be byte-identical
// across parallelism levels on tie-heavy keys.
//
// The enrichment pipeline (internal/core) compiles each SESQL *shape*
// once. sesql.Shape lexes a text in one pass into a shape key — the text
// with every literal of WHERE, ON and HAVING (tagged conditions included)
// replaced by a typed slot, ?1:str, ?2:int, ?3:float — and the vector of
// those literals. Select-list literals (they name headers), ORDER BY,
// LIMIT/OFFSET (they size the ORDER BY buffer), LIKE patterns (pre-compiled), IN-list
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
// The JoinManager compiles with the shape (core/shape.go): each step's
// attribute, mapping rule and output slot, the result's headers (clash
// suffixes such as dangerLevel_2 included) and the final stage. A request
// materialises the base rows, fetches every step's extract and makes one
// pass: each base row goes into one scratch row, is tested against the
// WHERE enrichments and fanned out by the schema enrichments, and every
// row that comes out is copied once, as its visible columns, into one
// arena. Extracts are keyed by sqlval.AppendJoinKey of the value read back
// through the resource mapping; NULL joins with nothing. Where the paper's
// Fig. 6 stages the joined rows in a support database for a "final query",
// the final stage here is a sqlexec.Tail compiled once against the
// result's headers: the same stable selection and key comparison as every
// other ORDER BY. The whole tail waits for it when a WHERE enrichment
// filters rows after the base query or an ORDER BY key names an enriched
// column. Otherwise the base query keeps the ORDER BY, and when a
// SCHEMAEXTENSION / SCHEMAREPLACEMENT step can fan a row out, it keeps the
// first offset+limit rows (every base row yields at least one joined row,
// so they hold the window) and the final stage only re-applies the window.
// Values keep the ontology's types. core.Stats.FinalSQLText ("final_sql"
// over REST) renders the stage as the SELECT ... FROM sesql_result of
// Fig. 6; it is a description, no SQL text is parsed or run.
//
// # Persistence and recovery
//
// The platform is durable through versioned binary snapshots that serialise
// the encoded layer directly (format version 1). rdf.SharedStore.WriteSnapshot
// writes the dictionary term table and every asserted triple as its raw
// TripleKey plus assertion refcount; rdf.View.WriteSnapshot writes a view's
// members as raw keys; kb.Platform.Snapshot frames those together
// with statements (provenance, believers, references), stored queries,
// vocabulary declarations and the id counter; and core.WriteImage combines
// the kb snapshot with the engine's SQL dump into one checksummed
// (CRC-32) platform image — core.ReadImageLSN / kb.Restore /
// rdf.ReadSharedSnapshot are the inverses. Restore is a bulk ID-level load:
// triples come back as integer keys and take dense ordinals in stream
// order (ordinals are not part of the format), view members come back as
// keys whose ordinals' bits are set, per-predicate counts are rebuilt in
// the same pass, statement triples decode from the restored dictionary, and
// only the dictionary's intern maps hash strings — once per distinct term,
// not per triple.
// BenchmarkSnapshotLoad times a cold start of a 100k-triple multi-user
// platform, and equal believer sets are shared across restored statements
// under the copy-on-write discipline. The kb snapshot is the only format
// that holds the whole semantic platform: the sesql shell's \savekb and
// \loadkb write and read it too. Restore rejects a stream whose state no
// sequence of platform calls can reach (refcounts or views disagreeing
// with the statements, a statement counter below an issued id, queries or
// declarations of unknown users) with a "kb: corrupt snapshot" error.
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
// enforced twice in internal/core/crash_test.go, with one workload and one
// probe: a fault-injection property suite (over wal.MemFS + wal.FaultFS)
// crashes randomized workloads at arbitrary write/sync boundaries
// in-process, and TestJournalCrashRecovery re-runs the test binary as a
// child journaling on disk, SIGKILLs it mid-workload five times, and diffs
// each recovery against exactly the acknowledged operations.
//
// Operationally, cmd/crosse-server persists only through the journal:
// -wal DIR (with -wal-sync always|interval|never and periodic
// -compact-interval) restores DIR/platform.img and replays the log on
// boot, compacts on SIGINT/SIGTERM, exits non-zero when that final
// compaction fails (a second signal forces immediate exit), and the REST
// layer exposes GET /api/v1/admin/snapshot (stream a backup), GET
// /api/v1/admin/wal (log position and sync counters) and POST
// /api/v1/admin/compact (an image at the current LSN, on demand). A
// backup is restored by placing it alone as platform.img in an empty
// directory and starting with -wal on that directory.
// cmd/crosse-server's TestServerCrashRecovery proves all of this on the
// binary itself, run as a child: acknowledged writes over /api/v1 survive
// a SIGKILL, SIGTERM exits 0 and the state survives the next start, a
// restored backup answers the same users, statements, SESQL and SPARQL
// probes, and a backup with one flipped byte is refused at boot.
//
// # Federation and fault tolerance
//
// Remote databanks attach over the FDW protocol (internal/fdw, the
// postgres_fdw role) as foreign tables the SQL executor scans like local
// ones, with an equality predicate and the scan's comparisons pushed to
// the remote node: the server drops a row only where the comparisons,
// evaluated in order, reject it without an error, and the executor
// evaluates every pushed comparison again, so an older server that
// ignores them still yields exact answers. Every message
// is a length-prefixed frame over buffered I/O: requests and terminal
// answers are small JSON control frames, and rows travel as binary
// batches (tagged values, lossless for NaN, ±Inf and non-UTF-8 text) that
// grow 1, 2, 4, … rows up to 32 KiB, each flushed as it fills, so the
// first row arrives after one row of remote work. An fdw.Client keeps a
// pool of sessions, one connection each: a round trip takes an idle
// session or dials a new one, and returns it after the terminal frame, so
// concurrent queries against one source never queue behind each other's
// scans, and the pool holds as many connections as round trips ever
// overlapped (the admission limiter bounds those). Close closes every
// session, idle or in flight, so each in-flight round trip fails at once
// with fdw.ErrClientClosed. A session decodes every row into one reused
// slice, which is why foreign tables are not sqldb.StableRowScanners.
// The client is resilient by default. Every round trip — send, stream,
// drain — runs under a deadline (Config.RequestTimeout, default 30s, tightened per call
// by the caller's context and enforced through net.Conn.SetDeadline, so a
// stalled peer costs one deadline, never a hung query; context
// cancellation fires the connection deadline immediately). Transient
// transport failures (dial refused, reset, torn stream) drop the session
// and retry with capped exponential backoff plus jitter on a freshly
// dialled one (Config.Retry); the protocol is stateless per request, so
// re-dialling re-attaches transparently and foreign tables keep working
// across peer restarts. Retries only happen while no row has reached the consumer —
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
// the circuit open, request/retry/trip counters and the open connections.
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
// suite (internal/fdw/fault_test.go over FaultConn, which lives with the
// tests in faultconn_test.go — latency, wrong errors, short writes,
// hangups and blackholes injected at arbitrary connection operations,
// which count whole frames: one write per request, one read per flushed
// batch) asserts every trial ends within its deadline with either the
// complete correct result or a typed error, and that each trial's fault
// fired during its first scan; FuzzFDWFrame holds the frame reader and
// batch decoder to typed errors. In cmd/crosse-server's tests a real
// data node is SIGKILLed with scans in flight under the shipped server:
// the circuit must open over the REST API, the query must answer 200 with
// the node named in degraded_sources and never from the result cache,
// and the half-open probe must readmit the node restarted on its address.
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
// pipeline's own ontology queries. docs/API.md is the contract;
// internal/rest/contract_test.go fails on envelope drift, and
// cmd/crosse-server's tests check that the serving-tier flags reach the
// shipped binary.
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
//     A /api/v1/query answer is encoded once, at the edge: one appender
//     writes its rows from the result's values (sqlval.Value.AppendText,
//     the rule String renders by) into a pooled buffer, with
//     encoding/json's exact bytes; the cache holds those bytes, charged
//     by their length, and a hit writes them around freshly encoded
//     serving stats. /api/v1/sparql still encodes through encoding/json.
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
