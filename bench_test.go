// Repository-level benchmarks: the per-layer families (SESQL parser,
// triple store, relational and SPARQL engines, durability, serving) and
// the pipeline-level measurements (enrichment against the hand-written
// plan, knowledge-base scaling, federation, belief import, peer
// recommendation). Run with
//
//	go test -bench=. -benchmem .
//
// The benchmark/ harness measures the served system end to end; these
// families localise a change to one layer or one pipeline stage.
package crosse

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"crosse/internal/core"
	"crosse/internal/dataset"
	"crosse/internal/engine"
	"crosse/internal/fdw"
	"crosse/internal/kb"
	"crosse/internal/rdf"
	"crosse/internal/recommend"
	"crosse/internal/rest"
	"crosse/internal/sesql"
	"crosse/internal/sparql"
	"crosse/internal/sqlexec"
	"crosse/internal/sqlparser"
	"crosse/internal/sqlval"
)

// --- shared fixtures ---

func benchFixture(b *testing.B, landfills, extraKB int) *core.Enricher {
	b.Helper()
	db := engine.Open()
	cfg := dataset.DefaultConfig()
	cfg.Landfills = landfills
	if err := dataset.Populate(db, cfg); err != nil {
		b.Fatal(err)
	}
	p := kb.NewPlatform()
	if err := p.RegisterUser("alice"); err != nil {
		b.Fatal(err)
	}
	ocfg := dataset.DefaultOntology()
	ocfg.ExtraTriples = extraKB
	if _, err := dataset.PopulateOntology(p, "alice", ocfg); err != nil {
		b.Fatal(err)
	}
	if err := dataset.RegisterDangerQuery(p); err != nil {
		b.Fatal(err)
	}
	return core.New(db, p, nil)
}

// --- Fig. 5: SESQL parser ---

func BenchmarkSESQLParse(b *testing.B) {
	queries := map[string]string{
		"PlainSQL":        `SELECT elem_name, landfill_name FROM elem_contained WHERE landfill_name = 'a'`,
		"SchemaExtension": `SELECT a, b FROM t ENRICH SCHEMAEXTENSION(a, p)`,
		"BoolExtension":   `SELECT a FROM t ENRICH BOOLSCHEMAEXTENSION(a, p, C)`,
		"ReplaceConstant": `SELECT a FROM t WHERE ${a = X:c1} ENRICH REPLACECONSTANT(c1, X, q)`,
		"ReplaceVariable": `SELECT a FROM t WHERE ${a <> b:c1} ENRICH REPLACEVARIABLE(c1, b, p)`,
		"Example46":       `SELECT e1.l AS x, e2.l AS y FROM t AS e1, t AS e2 WHERE ${e1.a <> e2.a:c1} AND e1.a = e2.a ENRICH REPLACEVARIABLE(c1, e2.a, p)`,
	}
	for name, q := range queries {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sesql.Parse(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig. 4: triple store ---

func BenchmarkTripleStoreInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	triples := make([]rdf.Triple, 1<<16)
	for i := range triples {
		triples[i] = rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://x/s%d", rng.Intn(10000))),
			P: rdf.NewIRI(fmt.Sprintf("http://x/p%d", rng.Intn(20))),
			O: rdf.NewIRI(fmt.Sprintf("http://x/o%d", rng.Intn(50000))),
		}
	}
	b.ResetTimer()
	st := rdf.NewSharedStore()
	for i := 0; i < b.N; i++ {
		st.AcquireTriple(triples[i%len(triples)])
	}
}

func BenchmarkTripleStoreLookup(b *testing.B) {
	for _, size := range []int{1000, 10000, 100000} {
		st := rdf.NewSharedStore()
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < size; i++ {
			st.AcquireTriple(rdf.Triple{
				S: rdf.NewIRI(fmt.Sprintf("http://x/s%d", rng.Intn(size/10+1))),
				P: rdf.NewIRI(fmt.Sprintf("http://x/p%d", rng.Intn(20))),
				O: rdf.NewIRI(fmt.Sprintf("http://x/o%d", i)),
			})
		}
		probe := rdf.Pattern{S: rdf.NewIRI("http://x/s1")}
		b.Run(fmt.Sprintf("size%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var out []rdf.Triple
				rdf.ForEach(st, probe, func(t rdf.Triple) bool {
					out = append(out, t)
					return true
				})
			}
		})
	}
}

// --- Fig. 6: full pipeline per enrichment strategy ---

func BenchmarkPipeline(b *testing.B) {
	enr := benchFixture(b, 200, 0)
	queries := map[string]string{
		"SchemaExtension": `SELECT elem_name, landfill_name FROM elem_contained
ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)`,
		"SchemaReplacement": `SELECT name, city FROM landfill
ENRICH SCHEMAREPLACEMENT(city, inCountry)`,
		"BoolSchemaExtension": `SELECT elem_name, landfill_name FROM elem_contained
ENRICH BOOLSCHEMAEXTENSION(elem_name, isA, HazardousWaste)`,
		"BoolSchemaReplacement": `SELECT name, city FROM landfill
ENRICH BOOLSCHEMAREPLACEMENT(city, inCountry, country_00)`,
		"ReplaceConstant": `SELECT landfill_name FROM elem_contained
WHERE ${elem_name = HazardousWaste:c1}
ENRICH REPLACECONSTANT(c1, HazardousWaste, dangerQuery)`,
		"ReplaceVariable": `SELECT landfill_name FROM elem_contained
WHERE ${elem_name = 'element_000':c1}
ENRICH REPLACEVARIABLE(c1, elem_name, oreAssemblage)`,
	}
	for name, q := range queries {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := enr.Query("alice", q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- enrichment vs the hand-written plan ---

// BenchmarkEnrichVsBaseline compares SCHEMAEXTENSION(elem_name,
// dangerLevel) over all of elem_contained with the plan a user would write
// by hand: the context exported once into a danger table, then a plain
// LEFT JOIN (only the join is timed). The SESQL/hand ratio shrinks as the
// table grows, so Large repeats the pair at 1 600 landfills beside the
// 200-landfill trio.
func BenchmarkEnrichVsBaseline(b *testing.B) {
	enr := benchFixture(b, 200, 0)

	b.Run("PlainSQL", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := enr.DB.Query(`SELECT elem_name, landfill_name FROM elem_contained`); err != nil {
				b.Fatal(err)
			}
		}
	})
	enrichVsHandWritten(b, enr)
	b.Run("Large", func(b *testing.B) {
		enrichVsHandWritten(b, benchFixture(b, 1600, 0))
	})
}

// enrichVsHandWritten runs the SESQLExtension and HandWrittenJoin pair on
// one fixture. It fails before timing the join if the exported danger
// table could not be built or holds no row, so the baseline never joins
// against an empty table.
func enrichVsHandWritten(b *testing.B, enr *core.Enricher) {
	b.Run("SESQLExtension", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := enr.Query("alice", `SELECT elem_name, landfill_name FROM elem_contained
ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)`); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Hand-written: knowledge manually exported to a relational table.
	if _, err := enr.DB.Exec(`CREATE TABLE danger (elem TEXT, level TEXT)`); err != nil {
		b.Fatal(err)
	}
	view, err := enr.Platform.View("alice")
	if err != nil {
		b.Fatal(err)
	}
	tab, err := enr.DB.Catalog().Table("danger")
	if err != nil {
		b.Fatal(err)
	}
	rdf.ForEach(view, rdf.Pattern{P: dataset.IRI("dangerLevel")}, func(t rdf.Triple) bool {
		name := t.S.Value[len(core.DefaultIRIPrefix):]
		err = tab.Insert([]sqlval.Value{sqlval.NewString(name), sqlval.NewString(t.O.Value)})
		return err == nil
	})
	if err != nil {
		b.Fatal(err)
	}
	if tab.Len() == 0 {
		b.Fatal("danger table is empty: the hand-written join would measure nothing")
	}
	b.Run("HandWrittenJoin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := enr.DB.Query(`SELECT e.elem_name, e.landfill_name, d.level
FROM elem_contained e LEFT JOIN danger d ON e.elem_name = d.elem`); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- knowledge-base scaling ---

func BenchmarkKBScaling(b *testing.B) {
	const q = `SELECT elem_name, landfill_name FROM elem_contained
ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)`
	for _, extra := range []int{0, 10000, 100000} {
		enr := benchFixture(b, 100, extra)
		b.Run(fmt.Sprintf("extraKB%d", extra), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				enr.SetQueryCache(core.NewQueryCache(0)) // measure the extraction, not memo hits
				if _, err := enr.Query("alice", q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- FDW federation ---

func BenchmarkFDW(b *testing.B) {
	remote := engine.Open()
	cfg := dataset.DefaultConfig()
	cfg.Landfills = 500
	if err := dataset.Populate(remote, cfg); err != nil {
		b.Fatal(err)
	}
	local, err := remote.Catalog().Table("elem_contained")
	if err != nil {
		b.Fatal(err)
	}

	srv := fdw.NewServer(remote.Catalog())
	a, c := net.Pipe()
	go srv.ServeConn(a)
	client := fdw.NewClient(c)
	defer client.Close()
	ft, err := client.ForeignTable("elem_contained", "")
	if err != nil {
		b.Fatal(err)
	}
	probe := sqlval.NewString(dataset.LandfillName(0))

	b.Run("LocalScan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = local.Scan(func([]sqlval.Value) bool { return true })
		}
	})
	b.Run("RemoteScan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := ft.Scan(func([]sqlval.Value) bool { return true }); err != nil {
				b.Fatal(err)
			}
		}
	})
	// wire-rows/op on RemotePushdown counts the rows the seek shipped.
	b.Run("RemotePushdown", func(b *testing.B) {
		_, wire0 := client.Stats()
		for i := 0; i < b.N; i++ {
			if err := ft.ScanEq("landfill_name", probe, func([]sqlval.Value) bool { return true }); err != nil {
				b.Fatal(err)
			}
		}
		_, wire1 := client.Stats()
		b.ReportMetric(float64(wire1-wire0)/float64(b.N), "wire-rows/op")
	})

	// dialTCP serves the remote over loopback TCP for one sub-benchmark
	// and dials a client to it.
	dialTCP := func(b *testing.B) *fdw.Client {
		tcpSrv := fdw.NewServer(remote.Catalog())
		addr, err := tcpSrv.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(tcpSrv.Close)
		tcp, err := fdw.Dial(addr)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { tcp.Close() })
		return tcp
	}

	// ConcurrentPushdown is RemotePushdown from GOMAXPROCS goroutines
	// through one loopback TCP client: concurrent round trips each run on
	// a connection of the client's session pool.
	b.Run("ConcurrentPushdown", func(b *testing.B) {
		tcp := dialTCP(b)
		ft, err := tcp.ForeignTable("elem_contained", "")
		if err != nil {
			b.Fatal(err)
		}
		_, wire0 := tcp.Stats()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := ft.ScanEq("landfill_name", probe, func([]sqlval.Value) bool { return true }); err != nil {
					b.Error(err)
					return
				}
			}
		})
		_, wire1 := tcp.Stats()
		b.ReportMetric(float64(wire1-wire0)/float64(b.N), "wire-rows/op")
	})

	// RemoteRange is federated_scan's fullscan shape over a loopback TCP
	// connection: a compiled range query on the foreign landfill table.
	// wire-rows/op counts the rows that crossed the connection, rows/op
	// the rows returned.
	b.Run("RemoteRange", func(b *testing.B) {
		tcp := dialTCP(b)
		lf, err := tcp.ForeignTable("landfill", "")
		if err != nil {
			b.Fatal(err)
		}
		fed := engine.Open()
		if err := fed.RegisterForeign(lf); err != nil {
			b.Fatal(err)
		}
		st, err := sqlparser.Parse("SELECT name, city FROM landfill WHERE area >= 530.0")
		if err != nil {
			b.Fatal(err)
		}
		plan, err := sqlexec.Compile(fed.Catalog(), st.(*sqlparser.Select))
		if err != nil {
			b.Fatal(err)
		}
		_, wire0 := tcp.Stats()
		rows := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := plan.Run()
			if err != nil {
				b.Fatal(err)
			}
			rows = len(res.Rows)
		}
		_, wire1 := tcp.Stats()
		b.ReportMetric(float64(rows), "rows/op")
		b.ReportMetric(float64(wire1-wire0)/float64(b.N), "wire-rows/op")
	})
}

// BenchmarkFDWRetryOverhead measures what the resilience envelope
// (per-request deadlines, retry accounting, circuit-breaker bookkeeping)
// costs on the happy path: the same remote scan through a client with the
// full envelope versus one with deadlines and retries disabled. The two
// sub-benchmarks should stay within a few percent of each other — the
// envelope is armed per round trip, not per row.
func BenchmarkFDWRetryOverhead(b *testing.B) {
	remote := engine.Open()
	cfg := dataset.DefaultConfig()
	cfg.Landfills = 500
	if err := dataset.Populate(remote, cfg); err != nil {
		b.Fatal(err)
	}
	srv := fdw.NewServer(remote.Catalog())

	scanWith := func(b *testing.B, ccfg fdw.Config) {
		a, c := net.Pipe()
		go srv.ServeConn(a)
		client := fdw.NewClientConfig(c, ccfg)
		defer client.Close()
		ft, err := client.ForeignTable("elem_contained", "")
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ft.Scan(func([]sqlval.Value) bool { return true }); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("resilient", func(b *testing.B) {
		scanWith(b, fdw.Config{}) // defaults: 30s deadline, 3 attempts, breaker
	})
	b.Run("baseline", func(b *testing.B) {
		scanWith(b, fdw.Config{RequestTimeout: -1, Retry: fdw.RetryPolicy{MaxAttempts: 1}})
	})
}

// --- crowdsourcing fan-out ---

// BenchmarkKBRetract is an owner retraction on a platform of 50k
// statements: the statement leaves the insertion order, the
// triple→statement index, its believers' views and the arena. Retractions
// pick random statements, so none is cheap by sitting at an end of the
// order. The platform is topped up by 1 000 statements, off the clock,
// whenever it falls to 50k.
func BenchmarkKBRetract(b *testing.B) {
	const base, refill = 50000, 1000
	p := kb.NewPlatform()
	if err := p.RegisterUser("owner"); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	var live []string
	inserted := 0
	top := func() {
		for len(live) < base+refill {
			id, err := p.Insert("owner", rdf.Triple{
				S: dataset.IRI(fmt.Sprintf("e%d", inserted)),
				P: dataset.IRI("dangerLevel"),
				O: rdf.NewLiteral("high"),
			})
			if err != nil {
				b.Fatal(err)
			}
			live = append(live, id)
			inserted++
		}
	}
	top()
	b.Run(fmt.Sprintf("statements%d", base), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(live) == base {
				b.StopTimer()
				top()
				b.StartTimer()
			}
			j := rng.Intn(len(live))
			if err := p.Retract("owner", live[j]); err != nil {
				b.Fatal(err)
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	})
}

func BenchmarkBeliefImport(b *testing.B) {
	for _, statements := range []int{100, 1000} {
		b.Run(fmt.Sprintf("statements%d", statements), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := kb.NewPlatform()
				_ = p.RegisterUser("expert")
				for j := 0; j < statements; j++ {
					_, _ = p.Insert("expert", rdf.Triple{
						S: dataset.IRI(fmt.Sprintf("e%d", j)),
						P: dataset.IRI("dangerLevel"),
						O: rdf.NewLiteral("high"),
					})
				}
				_ = p.RegisterUser("peer")
				b.StartTimer()
				if _, err := p.ImportFrom("peer", "expert", nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- peer recommendation ---

// BenchmarkRecommend ranks peers and recommends statements for one user as
// the community grows. Each statement is owned round-robin and imported by
// users/5 random users (seed 63), a dense, asymmetric belief matrix.
func BenchmarkRecommend(b *testing.B) {
	for _, sz := range []struct{ users, stmts int }{{10, 200}, {50, 500}, {100, 1000}} {
		p := kb.NewPlatform()
		for u := 0; u < sz.users; u++ {
			if err := p.RegisterUser(fmt.Sprintf("user%03d", u)); err != nil {
				b.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(63))
		for i := 0; i < sz.stmts; i++ {
			owner := fmt.Sprintf("user%03d", i%sz.users)
			id, err := p.Insert(owner, rdf.Triple{
				S: dataset.IRI(fmt.Sprintf("e%d", i)),
				P: dataset.IRI("isA"),
				O: dataset.IRI("HazardousWaste"),
			})
			if err != nil {
				b.Fatal(err)
			}
			for u := 0; u < sz.users/5; u++ {
				if name := fmt.Sprintf("user%03d", rng.Intn(sz.users)); name != owner {
					if err := p.Import(name, id); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		name := fmt.Sprintf("users%d_statements%d", sz.users, sz.stmts)
		b.Run(name+"/PeersByBeliefs", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				recommend.PeersByBeliefs(p, "user000", 10)
			}
		})
		b.Run(name+"/RecommendStatements", func(b *testing.B) {
			recs := 0
			for i := 0; i < b.N; i++ {
				recs = len(recommend.RecommendStatements(p, "user000", 10))
			}
			b.ReportMetric(float64(recs), "recs/op")
		})
	}
}

// BenchmarkManyUserMemory proves the overlay-view memory story: N users
// sharing one corpus. isolatedStores is the pre-overlay architecture (every
// user re-interns and re-indexes the corpus into an arena of their own);
// sharedOverlays is the platform layout (one SharedStore arena holding the
// dictionary and the ordinal postings once, each user a View: a paged
// bitset of arena ordinals plus a count per predicate). Compare B/op: a
// view's own cost is one bit per triple it holds plus one count per
// predicate — no term strings, no dictionary, no per-triple key — so
// total bytes must not scale with users × dictionary size.
func BenchmarkManyUserMemory(b *testing.B) {
	const corpusSize = 10000
	const users = 50
	rng := rand.New(rand.NewSource(5))
	corpus := make([]rdf.Triple, corpusSize)
	for i := range corpus {
		corpus[i] = rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://x/subject-%d", rng.Intn(corpusSize/4+1))),
			P: rdf.NewIRI(fmt.Sprintf("http://x/predicate-%d", rng.Intn(20))),
			O: rdf.NewIRI(fmt.Sprintf("http://x/object-%d", i)),
		}
	}

	b.Run("isolatedStores", func(b *testing.B) {
		b.ReportAllocs()
		var sink []*rdf.SharedStore
		for i := 0; i < b.N; i++ {
			stores := make([]*rdf.SharedStore, users)
			for u := range stores {
				stores[u] = rdf.NewSharedStore()
				for _, t := range corpus {
					stores[u].AcquireTriple(t)
				}
			}
			sink = stores
		}
		if len(sink) != users {
			b.Fatal("missing stores")
		}
	})
	b.Run("sharedOverlays", func(b *testing.B) {
		b.ReportAllocs()
		var sink []*rdf.View
		for i := 0; i < b.N; i++ {
			shared := rdf.NewSharedStore()
			keys := make([]rdf.TripleKey, len(corpus))
			for j, t := range corpus {
				keys[j] = shared.AcquireTriple(t)
			}
			views := make([]*rdf.View, users)
			for u := range views {
				views[u] = shared.NewView()
				views[u].AddBatch(keys)
			}
			sink = views
		}
		if len(sink) != users || sink[0].Len() != rdf.Count(sink[0], rdf.Pattern{}) {
			b.Fatal("broken views")
		}
	})
}

// BenchmarkConcurrentEnrich measures multi-user query throughput: goroutines
// run the full SESQL enrichment pipeline against DISTINCT users' overlay
// views of one shared corpus. Each query opens one read transaction over
// (view, arena) and runs lock-free inside, so ns/op should scale down
// near-linearly with GOMAXPROCS (compare -cpu 1,2,4,8).
func BenchmarkConcurrentEnrich(b *testing.B) {
	enr := benchFixture(b, 100, 5000)
	const users = 8
	names := make([]string, users)
	for u := range names {
		names[u] = fmt.Sprintf("peer%d", u)
		if err := enr.Platform.RegisterUser(names[u]); err != nil {
			b.Fatal(err)
		}
		if _, err := enr.Platform.ImportFrom(names[u], "alice", nil); err != nil {
			b.Fatal(err)
		}
	}
	const q = `SELECT elem_name, landfill_name FROM elem_contained
ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)`
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		user := names[int(next.Add(1))%users]
		for pb.Next() {
			if _, err := enr.Query(user, q); err != nil {
				// b.Fatal must not run on a RunParallel worker goroutine.
				b.Error(err)
				return
			}
		}
	})
}

// --- relational engine ---

func BenchmarkSQL(b *testing.B) {
	db := engine.Open()
	cfg := dataset.DefaultConfig()
	cfg.Landfills = 800
	if err := dataset.Populate(db, cfg); err != nil {
		b.Fatal(err)
	}
	queries := map[string]string{
		"Scan":      `SELECT COUNT(*) FROM elem_contained`,
		"Filter":    `SELECT COUNT(*) FROM elem_contained WHERE elem_name = 'element_000'`,
		"HashJoin":  `SELECT COUNT(*) FROM elem_contained e, landfill l WHERE e.landfill_name = l.name`,
		"GroupBy":   `SELECT elem_name, COUNT(*), AVG(amount) FROM elem_contained GROUP BY elem_name`,
		"OrderTopK": `SELECT elem_name, amount FROM elem_contained ORDER BY amount DESC LIMIT 10`,
	}
	for name, q := range queries {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// sqlBenchDB builds the table set the compiled-executor benchmark
// families share: points (indexed PK + secondary index on k) and two
// dimension tables for the multi-join shapes.
func sqlBenchDB(b *testing.B, rows int) *engine.DB {
	b.Helper()
	db := engine.Open()
	if _, err := db.ExecScript(`
		CREATE TABLE points (id INT PRIMARY KEY, k TEXT, v DOUBLE, n INT);
		CREATE INDEX idx_points_k ON points (k);
		CREATE TABLE dims (id INT PRIMARY KEY, grp TEXT);
		CREATE TABLE grps (grp TEXT, label TEXT);
	`); err != nil {
		b.Fatal(err)
	}
	points, _ := db.Catalog().Table("points")
	dims, _ := db.Catalog().Table("dims")
	grps, _ := db.Catalog().Table("grps")
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < rows; i++ {
		if err := points.Insert([]sqlval.Value{
			sqlval.NewInt(int64(i)),
			sqlval.NewString(fmt.Sprintf("k%d", i%97)),
			sqlval.NewFloat(rng.Float64() * 1000),
			sqlval.NewInt(int64(rng.Intn(1000))),
		}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < rows/5; i++ {
		if err := dims.Insert([]sqlval.Value{
			sqlval.NewInt(int64(i)),
			sqlval.NewString(fmt.Sprintf("g%d", i%13)),
		}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 13; i++ {
		if err := grps.Insert([]sqlval.Value{
			sqlval.NewString(fmt.Sprintf("g%d", i)),
			sqlval.NewString(fmt.Sprintf("label %d", i)),
		}); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// BenchmarkSQLSelect measures the single-table planner fast paths: the
// primary and secondary index seeks and the bounded top-K heap.
func BenchmarkSQLSelect(b *testing.B) {
	db := sqlBenchDB(b, 5000)
	cases := []struct{ name, q string }{
		{"IndexedSeek", `SELECT v FROM points WHERE id = 3000`},
		{"SecondarySeek", `SELECT COUNT(*) FROM points WHERE k = 'k42'`},
		{"TopK", `SELECT id, v FROM points ORDER BY v DESC LIMIT 10`},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(c.q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSQLJoin measures the multi-join pipeline: a three-table
// star-ish join at two sizes, and the 100k-row join the parallel-scaling
// sweep tracks (-cpu 1,4,8). Each counts its rows with COUNT(*); like
// every SQL plan, each runs on the one serial driver at every -cpu.
func BenchmarkSQLJoin(b *testing.B) {
	const multi = `SELECT COUNT(*) FROM points p JOIN dims d ON p.id = d.id JOIN grps g ON d.grp = g.grp WHERE p.n < 500`
	big := sqlBenchDB(b, 5000)
	b.Run("MultiJoinHash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := big.Query(multi); err != nil {
				b.Fatal(err)
			}
		}
	})
	huge := sqlBenchDB(b, 100000)
	b.Run("Hash100k", func(b *testing.B) {
		const q = `SELECT COUNT(*) FROM points p JOIN dims d ON p.id = d.id WHERE p.n < 500`
		for i := 0; i < b.N; i++ {
			if _, err := huge.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	small := sqlBenchDB(b, 600)
	b.Run("Hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := small.Query(multi); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSQLGroupBy and BenchmarkSQLOrderTopK are the other two
// scaling families over 100k rows: a GROUP BY and a top-K, whose bounded
// buffer keeps at most twice its LIMIT. Both run serial code at every
// -cpu, so the sweep shows only the runtime's own scaling.
func BenchmarkSQLGroupBy(b *testing.B) {
	db := sqlBenchDB(b, 100000)
	const q = `SELECT k, COUNT(*), MIN(v), MAX(v) FROM points GROUP BY k`
	b.Run("Merge100k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSQLOrderTopK(b *testing.B) {
	db := sqlBenchDB(b, 100000)
	const q = `SELECT id, v FROM points ORDER BY v DESC LIMIT 10`
	b.Run("Heap100k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// The four families below track the stages whose scaling CI guards: a
// plan dominated by its hash-join build, a grouped float SUM/AVG, the
// full final sort (ORDER BY without LIMIT) — SQL plans, which run on the
// one serial driver at every -cpu — and SPARQL property-path head fan-out
// (internal/sparql/parallel.go). Compare -cpu 1,4,8 — CI guards that
// 8-core ns/op never regresses past 1-core (cmd/benchjson -guard).

// BenchmarkSQLJoinBuildHeavy self-joins the 100k-row points table, so the
// hash build over all 100k rows is a large share of the query. Equal
// cardinalities keep the join unswapped, so it can never become an index
// probe, which would build no hash.
func BenchmarkSQLJoinBuildHeavy(b *testing.B) {
	db := sqlBenchDB(b, 100000)
	const q = `SELECT p.id, q.v FROM points p JOIN points q ON p.n = q.id`
	b.Run("Build100k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSQLGroupBySum measures a grouped float SUM/AVG: one
// Neumaier-compensated accumulator per group, filled in arrival order
// (see aggState).
func BenchmarkSQLGroupBySum(b *testing.B) {
	db := sqlBenchDB(b, 100000)
	const q = `SELECT k, SUM(v), AVG(v) FROM points GROUP BY k`
	b.Run("Sum100k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSQLOrderFullSort covers the ORDER BYs that keep most of their
// input: Sort100k has no LIMIT (every row sorted into the Result), and
// JoinSortOffset is analytic_large's join_sort_offset shape
// over the same 8 400-landfill databank (≈100k joined rows, a window of
// 100 rows past OFFSET 50 000), which no heap-sized bound can prune.
func BenchmarkSQLOrderFullSort(b *testing.B) {
	db := sqlBenchDB(b, 100000)
	const q = `SELECT id, v FROM points ORDER BY v DESC`
	b.Run("Sort100k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})

	jdb := analyticDB()
	const jq = `SELECT e.landfill_name, e.elem_name, e.amount, l.city FROM elem_contained e JOIN landfill l ON l.name = e.landfill_name WHERE e.amount < 100000 ORDER BY e.amount, e.landfill_name, e.elem_name LIMIT 100 OFFSET 50000`
	b.Run("JoinSortOffset", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := jdb.Query(jq)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != 100 {
				b.Fatalf("got %d rows, want 100", len(res.Rows))
			}
		}
	})
}

// analyticDB is the 8 400-landfill databank of benchmark/'s
// analytic_large workload (≈100k elem_contained rows), built once per
// test binary for the families that run its shapes.
var analyticDB = sync.OnceValue(func() *engine.DB {
	db := engine.Open()
	cfg := dataset.DefaultConfig()
	cfg.Landfills = 8400
	if err := dataset.Populate(db, cfg); err != nil {
		panic(err)
	}
	return db
})

// countRows runs a COUNT(*) query and returns its count.
func countRows(b *testing.B, db *engine.DB, q string) int64 {
	b.Helper()
	res, err := db.Query(q)
	if err != nil {
		b.Fatal(err)
	}
	if len(res.Rows) != 1 {
		b.Fatalf("%q: %d rows, want 1", q, len(res.Rows))
	}
	return res.Rows[0][0].Int()
}

// BenchmarkSQLHashJoin/Probe100k is the hash join of analytic_large's
// join_sort_offset shape without its sort: the 8 400 landfills build the
// table, the ≈100k elem_contained rows probe it, every one matching.
func BenchmarkSQLHashJoin(b *testing.B) {
	db := analyticDB()
	const q = `SELECT COUNT(*) FROM elem_contained e JOIN landfill l ON l.name = e.landfill_name WHERE e.amount < 100000`
	want := countRows(b, db, `SELECT COUNT(*) FROM elem_contained`)
	b.Run("Probe100k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := countRows(b, db, q); got != want {
				b.Fatalf("count %d, want %d", got, want)
			}
		}
	})
}

// BenchmarkSQLCompiledPlan isolates what the plan cache buys: a cached
// shape (lex the text, bind its literals into the compiled template, run)
// vs parse+compile+run per call, plus the bare parse+compile cost of a
// multi-join query. The measured query is an indexed point seek — the
// shape where planning would otherwise dominate.
func BenchmarkSQLCompiledPlan(b *testing.B) {
	db := sqlBenchDB(b, 5000)
	const q = `SELECT v, k FROM points WHERE id = 3000`
	parse := func() (*sqlparser.Select, error) {
		st, err := sqlparser.Parse(q)
		if err != nil {
			return nil, err
		}
		return st.(*sqlparser.Select), nil
	}

	b.Run("CachedRun", func(b *testing.B) {
		key, _, _ := sesql.Shape(q)
		sel, err := sqlparser.ParseSelectTemplate(key)
		if err != nil {
			b.Fatal(err)
		}
		tmpl, err := sqlexec.Compile(db.Catalog(), sel)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, lits, _ := sesql.Shape(q)
			if _, err := tmpl.Bind(lits.Vals).Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ParseCompileRun", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sel, err := parse()
			if err != nil {
				b.Fatal(err)
			}
			p, err := sqlexec.Compile(db.Catalog(), sel)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ParseCompileOnly", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sel, err := parse()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sqlexec.Compile(db.Catalog(), sel); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MultiJoinCompileOnly", func(b *testing.B) {
		const mj = `SELECT p.id, p.v, g.label FROM points p JOIN dims d ON p.id = d.id JOIN grps g ON d.grp = g.grp WHERE p.v > 500 ORDER BY p.v DESC LIMIT 20`
		for i := 0; i < b.N; i++ {
			st, err := sqlparser.Parse(mj)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sqlexec.Compile(db.Catalog(), st.(*sqlparser.Select)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSQLScanFilter is the executor's per-row cost on the request
// harness's databank (2 000 landfills, 4 000 analyses). The base SQL of
// the enrich_uncached city shapes scans every landfill through two
// source-local conjuncts, beside a hand loop over the same Table.Scan —
// the floor the compiled plan is measured against. The base SQL of
// federated_scan's join_replace_constant shape, here over all-local
// tables, drives 4 000 analyses through a.purity into a build of the
// dozen elem_contained rows the landfill seek returns. Each plan is compiled once from its
// query shape, bound per operation and run to its materialised Result, as
// the request path does; rows/op makes a change in what is returned show.
func BenchmarkSQLScanFilter(b *testing.B) {
	db := engine.Open()
	cfg := dataset.DefaultConfig()
	cfg.Landfills, cfg.Analyses = 2000, 4000
	if err := dataset.Populate(db, cfg); err != nil {
		b.Fatal(err)
	}
	city := dataset.CityName(7)
	cityQ := fmt.Sprintf("SELECT name, city FROM landfill WHERE city = '%s' AND area >= 250", city)
	joinQ := fmt.Sprintf("SELECT e.landfill_name, e.elem_name, a.lab_name FROM elem_contained e, analysis a WHERE e.landfill_name = '%s' AND a.landfill_name = e.landfill_name AND a.purity >= 0.6", dataset.LandfillName(14))
	plan := func(b *testing.B, q string) func() int {
		key, lits, _ := sesql.Shape(q)
		sel, err := sqlparser.ParseSelectTemplate(key)
		if err != nil {
			b.Fatal(err)
		}
		tmpl, err := sqlexec.Compile(db.Catalog(), sel)
		if err != nil {
			b.Fatal(err)
		}
		return func() int {
			res, err := tmpl.Bind(lits.Vals).Run()
			if err != nil {
				b.Fatal(err)
			}
			return len(res.Rows)
		}
	}
	run := func(b *testing.B, op func() int) {
		rows := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rows = op()
		}
		b.ReportMetric(float64(rows), "rows/op")
	}
	b.Run("City", func(b *testing.B) {
		run(b, plan(b, cityQ))
	})
	b.Run("City/HandLoop", func(b *testing.B) {
		t, err := db.Catalog().Table("landfill")
		if err != nil {
			b.Fatal(err)
		}
		run(b, func() int {
			n := 0
			_ = t.Scan(func(row []sqlval.Value) bool {
				if row[1].Str() == city && row[2].Float() >= 250 {
					n++
				}
				return true
			})
			return n
		})
	})
	b.Run("JoinReplaceConstant", func(b *testing.B) {
		run(b, plan(b, joinQ))
	})
	// DoubleColIntConst100k compares the DOUBLE amount column with an
	// INTEGER literal on every one of analytic_large's ≈100k rows, the
	// filter of its group_sum and join_sort_offset shapes.
	b.Run("DoubleColIntConst100k", func(b *testing.B) {
		adb := analyticDB()
		const q = `SELECT COUNT(*) FROM elem_contained WHERE amount < 100000`
		want := countRows(b, adb, `SELECT COUNT(*) FROM elem_contained`)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := countRows(b, adb, q); got != want {
				b.Fatalf("count %d, want %d", got, want)
			}
		}
	})
	// ProbeShare sweeps the driving side of a swapped join — the
	// landfills above an area cutoff — against the 4 000 analyses. Up to
	// one driving row per sqlexec's probeRatio (4) analyses the plan probes
	// idx_analysis_landfill per landfill; past it the plan builds a hash
	// join, so the sweep measures both.
	for _, drive := range []int{62, 125, 250, 500, 1000, 2000} {
		q := fmt.Sprintf("SELECT l.name, a.lab_name FROM landfill l, analysis a WHERE a.landfill_name = l.name AND l.area >= %.2f", 550-float64(drive)/4)
		b.Run(fmt.Sprintf("ProbeShare/drive=%d", drive), func(b *testing.B) {
			run(b, plan(b, q))
		})
	}
}

// BenchmarkRESTEncode/Rows4k sends a plain SESQL query whose 4 000-row,
// four-column result is the size of analytic_large's order_enriched answer
// through the REST handler, result cache off. The query stops its scan at
// the LIMIT, so writing the response body is most of the work.
func BenchmarkRESTEncode(b *testing.B) {
	const rows = 4000
	h := rest.NewServer(benchFixture(b, 400, 0)).Handler()
	body := fmt.Sprintf(`{"user":"alice","sesql":"SELECT elem_name, landfill_name, amount, elem_name FROM elem_contained LIMIT %d"}`, rows)
	send := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/query", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return rec
	}
	var out struct{ Rows [][]string }
	if err := json.Unmarshal(send().Body.Bytes(), &out); err != nil {
		b.Fatal(err)
	}
	if len(out.Rows) != rows {
		b.Fatalf("%d rows, want %d", len(out.Rows), rows)
	}
	b.Run("Rows4k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			send()
		}
	})
}

// --- SPARQL engine ---

// sparqlBenchStore builds the 20k-triple store the SPARQL benchmark
// families share: 10% hazard facts, a level per element, a subclass chain.
func sparqlBenchStore() *rdf.SharedStore { return sparqlBenchStoreN(20000) }

func sparqlBenchStoreN(elems int) *rdf.SharedStore {
	const ns = core.DefaultIRIPrefix
	st := rdf.NewSharedStore()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < elems; i++ {
		s := rdf.NewIRI(fmt.Sprintf("%selem%d", ns, i))
		if i%10 == 0 {
			st.AcquireTriple(rdf.Triple{S: s, P: rdf.NewIRI(ns + "isA"), O: rdf.NewIRI(ns + "Hazard")})
		}
		st.AcquireTriple(rdf.Triple{S: s, P: rdf.NewIRI(ns + "level"),
			O: rdf.NewTypedLiteral(fmt.Sprint(rng.Intn(10)), rdf.XSDInteger)})
	}
	for i := 0; i < 60; i++ {
		st.AcquireTriple(rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("%sclass%d", ns, i)),
			P: rdf.NewIRI(ns + "sub"),
			O: rdf.NewIRI(fmt.Sprintf("%sclass%d", ns, i+1)),
		})
	}
	return st
}

const sparqlBenchBGPJoin = `SELECT ?x ?l WHERE { ?x <` + core.DefaultIRIPrefix + `isA> <` + core.DefaultIRIPrefix + `Hazard> . ?x <` + core.DefaultIRIPrefix + `level> ?l }`

func BenchmarkSPARQL(b *testing.B) {
	const ns = core.DefaultIRIPrefix
	st := sparqlBenchStore()
	queries := map[string]string{
		"BGPJoin": sparqlBenchBGPJoin,
		"Filter":  `SELECT ?x WHERE { ?x <` + ns + `level> ?l . FILTER (?l > 7) }`,
		"PathTC":  `SELECT ?c WHERE { <` + ns + `class0> <` + ns + `sub>+ ?c }`,
	}
	for name, q := range queries {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sparql.Eval(st, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The parallel-scaling family: a 110k-triple store whose 10k-match head
	// pattern clears the morsel threshold, so -cpu 1,4,8 tracks the
	// parallel BGP pipeline rather than the serial fallback.
	big := sparqlBenchStoreN(100000)
	b.Run("BGPJoin100k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sparql.Eval(big, sparqlBenchBGPJoin); err != nil {
				b.Fatal(err)
			}
		}
	})
	// DynRegex100k filters the 100k-row level head by a REGEX whose pattern
	// is each row's own level: the executor compiles a pattern once per
	// evaluation (ten distinct levels), not once per row.
	b.Run("DynRegex100k", func(b *testing.B) {
		q := `SELECT ?x WHERE { ?x <` + ns + `level> ?l . FILTER REGEX(STR(?x), STR(?l)) }`
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := sparql.Eval(big, q)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Bindings) == 0 {
				b.Fatal("no solutions")
			}
		}
	})
	// OrderBy100k sorts the 100k-row level head once, on the coordinator,
	// after the workers buffer it; Limit10of100k stops the serial head
	// scan at its tenth row.
	for _, c := range []struct {
		name string
		q    string
		rows int
	}{
		{"OrderBy100k", `SELECT ?x ?l WHERE { ?x <` + ns + `level> ?l } ORDER BY ?l ?x`, 100000},
		{"Limit10of100k", `SELECT ?x ?l WHERE { ?x <` + ns + `level> ?l } LIMIT 10`, 10},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := sparql.Eval(big, c.q)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Bindings) != c.rows {
					b.Fatalf("%d solutions, want %d", len(res.Bindings), c.rows)
				}
			}
		})
	}
}

// BenchmarkSPARQLPathHead is the property-path fan-out family: the driving
// step is a path whose 10k-pair frontier is materialised once and split
// into morsels, and each worker runs the downstream probe + FILTER
// pipeline over its pairs. The planner picks the path step as the head:
// it prices the path by its leading isA step, far fewer rows than the
// plain level pattern. Compare -cpu 1,4,8.
func BenchmarkSPARQLPathHead(b *testing.B) {
	const ns = core.DefaultIRIPrefix
	big := sparqlBenchStoreN(100000)
	q := `SELECT ?x ?c ?l WHERE { ?x <` + ns + `isA>/<` + ns + `sub>* ?c . ?x <` + ns + `level> ?l . FILTER REGEX(STR(?x), "[2468]0$") }`
	parsed, err := sparql.Parse(q)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := sparql.Compile(parsed)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Closure100k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := plan.Eval(big)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Bindings) == 0 {
				b.Fatal("no solutions")
			}
		}
	})
	// ChainView100k is benchmark/'s sparql_closure shape: a p+ walk from
	// the head of a 100k-edge chain, filtered down to every 1000th node.
	// The chain sits in one user's View beside a neighbour view that gives
	// every chain node a decoy successor, so each BFS step reads through
	// the view's membership filter as it does in production.
	chain := chainView(100000)
	parsed, err = sparql.Parse(`SELECT ?y WHERE { <` + ns + `chain_0> <` + ns + `next>+ ?y . FILTER REGEX(STR(?y), "_[0-9]+000$") }`)
	if err != nil {
		b.Fatal(err)
	}
	chainPlan, err := sparql.Compile(parsed)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("ChainView100k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := chainPlan.Eval(chain)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Bindings) != 100 {
				b.Fatalf("%d solutions, want 100", len(res.Bindings))
			}
		}
	})
}

// chainView builds the view chain_0 → chain_1 → … → chain_edges over
// <next>, in an arena where a neighbour view links each chain node to a
// decoy of its own.
func chainView(edges int) *rdf.View {
	const ns = core.DefaultIRIPrefix
	arena := rdf.NewSharedStore()
	view, neighbour := arena.NewView(), arena.NewView()
	next := rdf.NewIRI(ns + "next")
	node := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("%schain_%d", ns, i)) }
	for i := 0; i < edges; i++ {
		view.Add(arena.AcquireTriple(rdf.Triple{S: node(i), P: next, O: node(i + 1)}))
		neighbour.Add(arena.AcquireTriple(rdf.Triple{S: node(i), P: next, O: rdf.NewIRI(fmt.Sprintf("%sdecoy_%d", ns, i))}))
	}
	return view
}

// BenchmarkSPARQLCompiledPlan isolates what the compiled-plan cache buys on
// the hot enrichment path: Cached evaluates a pre-compiled plan (what a
// QueryCache hit executes — no lexing, parsing or planning), ParsePlanEval
// is the full pipeline per call, and ParseCompile is the planning work
// alone (the part a cache hit skips).
func BenchmarkSPARQLCompiledPlan(b *testing.B) {
	st := sparqlBenchStore()
	q := sparqlBenchBGPJoin

	b.Run("Cached", func(b *testing.B) {
		b.ReportAllocs()
		parsed, err := sparql.Parse(q)
		if err != nil {
			b.Fatal(err)
		}
		plan, err := sparql.Compile(parsed)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := plan.Eval(st); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ParsePlanEval", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sparql.Eval(st, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ParseCompile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			parsed, err := sparql.Parse(q)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sparql.Compile(parsed); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSPARQLBGPJoinAllocs contrasts the two result-delivery modes of
// the ID-native executor on the BGP join: Bindings materialises the public
// map-based form per solution, Stream decodes on access and allocates no
// per-solution state — the path internal/core's enrichment pipeline uses.
// Compare allocs/op against the PR 1 term-level engine (~18k allocs/op on
// this query) for the executor's allocation story.
func BenchmarkSPARQLBGPJoinAllocs(b *testing.B) {
	st := sparqlBenchStore()
	parsed, err := sparql.Parse(sparqlBenchBGPJoin)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := sparql.Compile(parsed)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("Bindings", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := plan.Eval(st)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Bindings) == 0 {
				b.Fatal("no solutions")
			}
		}
	})
	b.Run("Stream", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			err := plan.Stream(st, func(s sparql.Solution) bool {
				if t, ok := s.Term(0); ok && t.IsIRI() {
					n++
				}
				return true
			})
			if err != nil {
				b.Fatal(err)
			}
			if n == 0 {
				b.Fatal("no solutions")
			}
		}
	})
}

// BenchmarkStoreChurn releases a triple and asserts it again under a
// predicate with a 100k fan-out, whose object is shared by every triple
// too, so three of its six postings hold 100k ordinals. Each ordinal
// records its slot in each posting, so the release is a swap-removal whose
// cost does not grow with the fan-out.
func BenchmarkStoreChurn(b *testing.B) {
	const n = 100000
	st := rdf.NewSharedStore()
	hot, v := rdf.NewIRI("http://x/hot"), rdf.NewLiteral("v")
	ts := make([]rdf.Triple, n)
	keys := make([]rdf.TripleKey, n)
	for i := range ts {
		ts[i] = rdf.Triple{S: rdf.NewIRI(fmt.Sprintf("http://x/s%d", i)), P: hot, O: v}
		keys[i] = st.AcquireTriple(ts[i])
	}
	rng := rand.New(rand.NewSource(8))
	b.Run("HotPredicate100k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			j := rng.Intn(n)
			st.Release(keys[j])
			st.AcquireTriple(ts[j])
		}
	})
}

// BenchmarkStoreCount measures term-level pattern-cardinality probes
// (rdf.Count) across arena sizes. Count reads index sizes instead of
// enumerating matches, so the probe is O(1) in the arena size; rdf.Count's
// callback escapes through the Graph interface, though, and the GC those
// two small allocations per call trigger grows with the live heap. The
// SPARQL join orderer issues the same probe ID-natively
// (IDReader.CountIDs), once per candidate pattern per BGP, inside its
// query's one read transaction.
func BenchmarkStoreCount(b *testing.B) {
	for _, size := range []int{1000, 100000} {
		st := rdf.NewSharedStore()
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < size; i++ {
			st.AcquireTriple(rdf.Triple{
				S: rdf.NewIRI(fmt.Sprintf("http://x/s%d", rng.Intn(size/10+1))),
				P: rdf.NewIRI(fmt.Sprintf("http://x/p%d", rng.Intn(20))),
				O: rdf.NewIRI(fmt.Sprintf("http://x/o%d", rng.Intn(size/2+1))),
			})
		}
		s0 := rdf.NewIRI("http://x/s0")
		p0 := rdf.NewIRI("http://x/p0")
		o0 := rdf.NewIRI("http://x/o0")
		pats := []rdf.Pattern{
			{S: s0},               // S??
			{P: p0},               // ?P?
			{O: o0},               // ??O
			{S: s0, P: p0},        // SP?
			{P: p0, O: o0},        // ?PO
			{S: s0, O: o0},        // S?O
			{},                    // ???
			{S: s0, P: p0, O: o0}, // SPO
		}
		b.Run(fmt.Sprintf("size%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rdf.Count(st, pats[i%len(pats)])
			}
		})
		if size < 100000 {
			continue
		}
		// A view holding every other triple of the arena, one shape per
		// sub-benchmark: a view counts ?P? from its per-predicate counts
		// and every other bound shape along the shorter of the arena's
		// posting and its own set bits.
		var all []rdf.TripleKey
		st.ReadIDs(func(r rdf.IDReader) {
			r.ForEachIDs(rdf.PatternIDs{}, func(s, p, o rdf.TermID) bool {
				all = append(all, rdf.TripleKey{s, p, o})
				return true
			})
		})
		v := st.NewView()
		for i := 0; i < len(all); i += 2 {
			v.Add(all[i])
		}
		for i, name := range []string{"S", "P", "O", "SP", "PO", "SO", "all", "SPO"} {
			p := pats[i]
			b.Run(fmt.Sprintf("viewHalf%d/%s", size, name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rdf.Count(v, p)
				}
			})
		}
	}
}

// BenchmarkPipelineCache compares a full SESQL evaluation with the query
// cache enabled (the default) versus disabled. "Cached" skips lexing,
// parsing and planning and also serves the context extract from the
// per-view-epoch memo, so no SPARQL query runs; "Uncached" pays both.
func BenchmarkPipelineCache(b *testing.B) {
	const query = `SELECT elem_name, landfill_name FROM elem_contained
ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)`
	b.Run("Cached", func(b *testing.B) {
		enr := benchFixture(b, 200, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := enr.Query("alice", query); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Uncached", func(b *testing.B) {
		enr := benchFixture(b, 200, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			enr.SetQueryCache(core.NewQueryCache(0))
			if _, err := enr.Query("alice", query); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEnrichDistinctLiterals runs the six Sec. IV strategies with a
// fresh threshold literal every iteration — the request stream of a
// service whose texts never repeat. Every text is new to a cache keyed on
// text; its shape is not.
func BenchmarkEnrichDistinctLiterals(b *testing.B) {
	enr := benchFixture(b, 200, 0)
	text := func(i int) string {
		lf, ct, el := dataset.LandfillName(i%200), dataset.CityName(i%40), dataset.ElementName(i%50)
		switch i % 6 {
		case 0:
			return fmt.Sprintf("SELECT elem_name, landfill_name FROM elem_contained WHERE landfill_name = '%s' AND amount >= %d ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)", lf, i)
		case 1:
			return fmt.Sprintf("SELECT name, city FROM landfill WHERE city = '%s' AND area >= %d ENRICH SCHEMAREPLACEMENT(city, inCountry)", ct, i)
		case 2:
			return fmt.Sprintf("SELECT elem_name, landfill_name FROM elem_contained WHERE landfill_name = '%s' AND amount >= %d ENRICH BOOLSCHEMAEXTENSION(elem_name, isA, HazardousWaste)", lf, i)
		case 3:
			return fmt.Sprintf("SELECT name, city FROM landfill WHERE city = '%s' AND area >= %d ENRICH BOOLSCHEMAREPLACEMENT(city, inCountry, Italy)", ct, i)
		case 4:
			return fmt.Sprintf("SELECT landfill_name, amount FROM elem_contained WHERE landfill_name = '%s' AND amount >= %d AND ${elem_name = HazardousWaste:c1} ENRICH REPLACECONSTANT(c1, HazardousWaste, dangerQuery)", lf, i)
		default:
			return fmt.Sprintf("SELECT landfill_name, elem_name FROM elem_contained WHERE landfill_name = '%s' AND amount >= %d AND ${elem_name = '%s':c1} ENRICH REPLACEVARIABLE(c1, elem_name, oreAssemblage)", lf, i, el)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enr.Query("alice", text(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- durability: platform snapshots (cold-start recovery) ---

// snapshotPlatform builds a multi-user platform: one curator owning
// `triples` distinct statements and `users` peers each believing an equal
// slice of the corpus (the crowdsourcing shape a production deployment
// restarts with).
func snapshotPlatform(b *testing.B, triples, users int) *kb.Platform {
	b.Helper()
	p := kb.NewPlatform()
	if err := p.RegisterUser("curator"); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < triples; i++ {
		_, err := p.Insert("curator", rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://x/subject-%d", rng.Intn(triples/4+1))),
			P: rdf.NewIRI(fmt.Sprintf("http://x/predicate-%d", rng.Intn(24))),
			O: rdf.NewIRI(fmt.Sprintf("http://x/object-%d", i)),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	for u := 0; u < users; u++ {
		peer := fmt.Sprintf("peer%d", u)
		if err := p.RegisterUser(peer); err != nil {
			b.Fatal(err)
		}
		i := -1
		if _, err := p.ImportFrom(peer, "curator", func(*kb.Statement) bool {
			i++
			return i%users == u
		}); err != nil {
			b.Fatal(err)
		}
	}
	if err := dataset.RegisterDangerQuery(p); err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkSnapshotSave measures writing the semantic platform's binary
// snapshot (arena + views + statements). MB/s is reported via SetBytes.
func BenchmarkSnapshotSave(b *testing.B) {
	for _, triples := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("triples%d", triples), func(b *testing.B) {
			p := snapshotPlatform(b, triples, 4)
			var probe bytes.Buffer
			if err := p.Snapshot(&probe); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(probe.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.Snapshot(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshotLoad is the cold-start experiment: restoring a
// 100k-triple, multi-user platform from the binary snapshot (bulk ID-level
// load).
func BenchmarkSnapshotLoad(b *testing.B) {
	const triples, users = 100000, 4
	p := snapshotPlatform(b, triples, users)

	var snap bytes.Buffer
	if err := p.Snapshot(&snap); err != nil {
		b.Fatal(err)
	}

	b.Run("snapshot", func(b *testing.B) {
		b.SetBytes(int64(snap.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			restored, err := kb.Restore(bytes.NewReader(snap.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			if restored.Shared().Len() != p.Shared().Len() {
				b.Fatalf("restored %d triples, want %d", restored.Shared().Len(), p.Shared().Len())
			}
		}
	})
}
