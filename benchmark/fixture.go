package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"time"

	"crosse/internal/core"
	"crosse/internal/dataset"
	"crosse/internal/engine"
	"crosse/internal/fdw"
	"crosse/internal/kb"
	"crosse/internal/rdf"
	"crosse/internal/rest"
	"crosse/internal/serve"
	"crosse/internal/wal"
)

// Fixture sizes shared by every workload. The fixture is the system's
// state, not an input: it is built from fixed seeds so that runs with
// different --seed values differ only in the requests they send.
const (
	numUsers      = 16
	curator       = "curator"
	extraTriples  = 20000 // padding facts in the curator KB every user imports
	ownStatements = 500   // seeded statements each user adds after the import
	cacheEntries  = 4096  // serve.Cache bound, the crosse-server default
	cacheBytes    = 64 << 20
	walSyncEvery  = 100 * time.Millisecond // crosse-server -wal-sync interval default
	markerPrefix  = "only-"                // dangerLevel literals believed by exactly one user
)

var dangerLevels = []string{"low", "medium", "high", "severe"}

// scratchRoot holds journal directories and result files. The contract
// confines the benchmark to its checkout, so this is relative to the
// working directory; tests point it at t.TempDir().
var scratchRoot = ".bench_build"

func userName(i int) string { return fmt.Sprintf("u%02d", i) }

// fixtureSpec sizes one workload's platform.
type fixtureSpec struct {
	landfills  int  // dataset.Populate scale; 12 elements each → ≈12×landfills elem_contained rows
	users      int  // users besides the curator
	chainEdges int  // length of the oreAssemblage chain added to the curator KB
	federated  bool // landfill and elem_contained live behind an in-process fdw.Server
	journaled  bool // mutations go through a core.Journal in a real directory
}

// fixture is one running platform: databank, semantic platform, the
// production-wired v1 handler on a loopback listener, and the handles the
// traced run reads counters from.
type fixture struct {
	spec     fixtureSpec
	db       *engine.DB // databank the server queries
	oracleDB *engine.DB // the same rows with every table local; db unless federated
	platform *kb.Platform
	enricher *core.Enricher
	journal  *core.Journal
	dir      string // journal directory, "" unless journaled
	fdwSrv   *fdw.Server
	fdwCli   *fdw.Client
	cache    *serve.Cache
	limiter  *serve.Limiter
	handler  http.Handler
	httpSrv  *http.Server
	baseURL  string
}

func buildDatabank(landfills int) (*engine.DB, error) {
	db := engine.Open()
	cfg := dataset.DefaultConfig()
	cfg.Landfills = landfills
	cfg.Analyses = landfills * 2
	if err := dataset.Populate(db, cfg); err != nil {
		return nil, fmt.Errorf("populate databank: %w", err)
	}
	return db, nil
}

// chainNode names the i-th node of the analytic oreAssemblage chain.
// Unpadded on purpose: the closure workload filters on "[0-9]+000$", which
// must not match chain_0.
func chainNode(i int) string { return fmt.Sprintf("chain_%d", i) }

// buildPlatform creates the semantic platform: the curator's ontology,
// every user importing it, then ~ownStatements seeded statements per user
// so that the same query answers differently per user.
func buildPlatform(spec fixtureSpec) (*kb.Platform, error) {
	p := kb.NewPlatform()
	if err := p.RegisterUser(curator); err != nil {
		return nil, err
	}
	ocfg := dataset.DefaultOntology()
	ocfg.ExtraTriples = extraTriples
	if _, err := dataset.PopulateOntology(p, curator, ocfg); err != nil {
		return nil, fmt.Errorf("populate ontology: %w", err)
	}
	for i := 0; i < spec.chainEdges; i++ {
		t := rdf.Triple{S: dataset.IRI(chainNode(i)), P: dataset.IRI("oreAssemblage"), O: dataset.IRI(chainNode(i + 1))}
		if _, err := p.Insert(curator, t); err != nil {
			return nil, err
		}
	}
	if err := dataset.RegisterDangerQuery(p); err != nil {
		return nil, err
	}
	cfg := dataset.DefaultConfig()
	for u := 0; u < spec.users; u++ {
		name := userName(u)
		if err := p.RegisterUser(name); err != nil {
			return nil, err
		}
		if _, err := p.ImportFrom(name, curator, nil); err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(int64(1000 + u)))
		elem := func() rdf.Term { return dataset.IRI(dataset.ElementName(rng.Intn(cfg.Elements))) }
		var own []rdf.Triple
		for i := 0; i < 10; i++ {
			own = append(own, rdf.Triple{S: elem(), P: dataset.IRI("dangerLevel"), O: rdf.NewLiteral(markerPrefix + name)})
		}
		for i := 0; i < 40; i++ {
			own = append(own, rdf.Triple{S: elem(), P: dataset.IRI("dangerLevel"), O: rdf.NewLiteral(dangerLevels[rng.Intn(len(dangerLevels))])})
		}
		for i := 0; i < 15; i++ {
			own = append(own, rdf.Triple{S: elem(), P: dataset.IRI("isA"), O: dataset.IRI("HazardousWaste")})
		}
		for i := 0; i < 10; i++ {
			c := rng.Intn(cfg.Cities)
			own = append(own, rdf.Triple{S: dataset.IRI(dataset.CityName(c)), P: dataset.IRI("inCountry"), O: dataset.IRI(dataset.CountryName(rng.Intn(8)))})
		}
		for i := 0; i < 150; i++ {
			own = append(own, rdf.Triple{S: elem(), P: dataset.IRI("oreAssemblage"), O: elem()})
		}
		for i := len(own); i < ownStatements; i++ {
			own = append(own, rdf.Triple{S: dataset.IRI(fmt.Sprintf("note_%s_%d", name, i)), P: dataset.IRI("note"), O: rdf.NewLiteral(fmt.Sprintf("n%d", rng.Intn(1000)))})
		}
		for _, t := range own {
			if _, err := p.Insert(name, t); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// newFixture builds the platform and starts the server. The wiring is
// cmd/crosse-server's: default plan cache, ExecOptions zero value, an
// Activity tracker, the concept checker, a 4096-entry / 64 MiB result
// cache. The limiter is the pass-through one (-max-inflight 0) so that
// admission counters can be read.
func newFixture(spec fixtureSpec) (fx *fixture, err error) {
	fx = &fixture{spec: spec}
	defer func() {
		if err != nil {
			fx.close()
		}
	}()
	bootstrap := func() (*engine.DB, *kb.Platform, error) {
		db, err := buildDatabank(spec.landfills)
		if err != nil {
			return nil, nil, err
		}
		p, err := buildPlatform(spec)
		return db, p, err
	}
	if spec.journaled {
		if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
			return fx, err
		}
		if fx.dir, err = os.MkdirTemp(scratchRoot, "journal-"); err != nil {
			return fx, err
		}
		fx.journal, _, err = core.OpenJournal(fx.dir, journalOptions(), bootstrap)
		if err != nil {
			return fx, fmt.Errorf("open journal: %w", err)
		}
		fx.db, fx.platform = fx.journal.DB(), fx.journal.Platform()
	} else if fx.db, fx.platform, err = bootstrap(); err != nil {
		return fx, err
	}
	fx.oracleDB = fx.db

	if spec.federated {
		// The populated engine becomes the remote source (and the oracle's
		// all-local twin); the server's databank keeps lab and analysis and
		// reaches the other two tables over the wire.
		remote := fx.db
		fx.oracleDB = remote
		if fx.db, err = buildDatabank(spec.landfills); err != nil {
			return fx, err
		}
		fx.fdwSrv = fdw.NewServer(remote.Catalog())
		addr, err := fx.fdwSrv.Listen("127.0.0.1:0")
		if err != nil {
			return fx, fmt.Errorf("fdw listen: %w", err)
		}
		if fx.fdwCli, err = fdw.DialConfig(addr, fdw.Config{Name: "remote"}); err != nil {
			return fx, fmt.Errorf("fdw dial: %w", err)
		}
		for _, t := range []string{"landfill", "elem_contained"} {
			if err := fx.db.Catalog().DropTable(t, false); err != nil {
				return fx, err
			}
			ft, err := fx.fdwCli.ForeignTable(t, "")
			if err != nil {
				return fx, err
			}
			if err := fx.db.RegisterForeign(ft); err != nil {
				return fx, err
			}
		}
	}

	fx.enricher = core.New(fx.db, fx.platform, nil)
	fx.enricher.Activity = core.NewActivity()
	fx.platform.SetConceptChecker(core.NewConceptChecker(fx.db, fx.enricher.Mapping))
	srv := rest.NewServer(fx.enricher)
	srv.SetLogf(nil)
	fx.cache = serve.NewCache(cacheEntries, cacheBytes)
	srv.SetResultCache(fx.cache)
	fx.limiter = serve.NewLimiter(0, 32)
	srv.SetAdmission(fx.limiter)
	if fx.journal != nil {
		srv.SetJournal(fx.journal)
	}
	fx.handler = srv.Handler()

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fx, fmt.Errorf("http listen: %w", err)
	}
	fx.baseURL = "http://" + lis.Addr().String()
	fx.httpSrv = &http.Server{Handler: fx.handler}
	go fx.httpSrv.Serve(lis) // returns when close shuts the server down
	return fx, nil
}

func journalOptions() core.JournalOptions {
	return core.JournalOptions{Sync: wal.SyncInterval, SyncEvery: walSyncEvery}
}

// close stops the servers and closes the journal. The journal directory is
// kept for the recovery check; removeDir deletes it.
func (fx *fixture) close() {
	if fx.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = fx.httpSrv.Shutdown(ctx) // a stuck handler only delays exit; Close below drops it
		cancel()
		_ = fx.httpSrv.Close()
		fx.httpSrv = nil
	}
	if fx.fdwCli != nil {
		_ = fx.fdwCli.Close()
		fx.fdwCli = nil
	}
	if fx.fdwSrv != nil {
		fx.fdwSrv.Close()
		fx.fdwSrv = nil
	}
	if fx.journal != nil {
		_ = fx.journal.Close() // the recovery check reopens the directory and reports what is missing
		fx.journal = nil
	}
}

func (fx *fixture) removeDir() {
	if fx.dir != "" {
		_ = os.RemoveAll(fx.dir)
		fx.dir = ""
	}
}
