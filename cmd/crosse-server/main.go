// Command crosse-server runs the CroSSE platform as an HTTP service: the
// main platform (relational databank), the semantic platform (per-user
// knowledge bases) and the REST integration between them — the deployment
// shape of Fig. 1/Fig. 2.
//
// Usage:
//
//	crosse-server                        # sample data on :8080
//	crosse-server -addr :9090 -scale 500 # synthetic databank, custom port
//	crosse-server -attach host:port      # also attach a remote FDW node
//	crosse-server -attach host:port -partial-results -source-timeout 5s
//	crosse-server -mapping map.xml       # custom resource mapping
//	crosse-server -wal state/            # write-ahead-logged platform
//	crosse-server -wal state/ -wal-sync always -compact-interval 10m
//	crosse-server -max-inflight 32 -inflight-queue 64  # admission control
//	crosse-server -cache-entries 0       # disable the enriched-result cache
//
// The public API is versioned under /api/v1/.... The serving tier in
// front of the handlers — an epoch-keyed enriched-result cache, per-
// endpoint request metrics (GET /api/v1/metrics) and admission control on
// the query endpoints — is configured by the -cache-* and -*inflight*
// flags above. See docs/API.md.
//
// With -wal, the platform journals every mutation to an append-only log
// before acknowledging it (group-committed under -wal-sync), recovery on
// boot is image + log replay, and compaction (periodic via
// -compact-interval, on demand via POST /api/v1/admin/compact, and once at
// shutdown) re-anchors the image and empties the log. Without -wal the
// platform lives in memory only. A backup downloaded from
// GET /api/v1/admin/snapshot is restored by placing it alone as
// platform.img in an empty directory and starting with -wal on that
// directory.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"crosse/internal/core"
	"crosse/internal/dataset"
	"crosse/internal/engine"
	"crosse/internal/fdw"
	"crosse/internal/kb"
	"crosse/internal/rest"
	"crosse/internal/serve"
	"crosse/internal/wal"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "HTTP listen address")
		scale         = flag.Int("scale", 200, "synthetic databank size (landfills)")
		attach        = flag.String("attach", "", "FDW server address to attach as foreign tables")
		mapping       = flag.String("mapping", "", "resource mapping XML file")
		walDir        = flag.String("wal", "", "journal directory: write-ahead-log every mutation, recover via image + replay on boot")
		walSync       = flag.String("wal-sync", "interval", "WAL durability policy: always (fsync per ack, group-committed), interval, never")
		walSyncEvery  = flag.Duration("wal-sync-interval", 100*time.Millisecond, "fsync cadence under -wal-sync interval")
		compactEvery  = flag.Duration("compact-interval", 0, "rewrite image + truncate log periodically (0 disables; requires -wal)")
		partial       = flag.Bool("partial-results", false, "degrade gracefully when a remote source is down: skip it (reported in query stats) instead of failing the query")
		sourceTimeout = flag.Duration("source-timeout", 30*time.Second, "per-request deadline for remote FDW sources")
		healthEvery   = flag.Duration("health-interval", 2*time.Second, "remote-source health poll cadence (0 disables polling)")
		cacheEntries  = flag.Int("cache-entries", 4096, "enriched-result cache entry bound (0 disables result caching)")
		cacheBytes    = flag.Int64("cache-bytes", 64<<20, "enriched-result cache byte budget")
		maxInflight   = flag.Int("max-inflight", 0, "maximum concurrently executing queries (0 = unlimited)")
		inflightQueue = flag.Int("inflight-queue", 32, "queries allowed to wait for an execution slot before a 429 (requires -max-inflight)")
	)
	flag.Parse()

	if *compactEvery > 0 && *walDir == "" {
		log.Fatalf("-compact-interval requires -wal")
	}

	bootstrap := func() (*engine.DB, *kb.Platform, error) {
		db := engine.Open()
		cfg := dataset.DefaultConfig()
		cfg.Landfills = *scale
		if err := dataset.Populate(db, cfg); err != nil {
			return nil, nil, fmt.Errorf("populate databank: %w", err)
		}
		p := kb.NewPlatform()
		if err := dataset.RegisterDangerQuery(p); err != nil {
			return nil, nil, fmt.Errorf("register dangerQuery: %w", err)
		}
		return db, p, nil
	}

	var (
		db       *engine.DB
		platform *kb.Platform
		journal  *core.Journal
		restored bool
	)
	if *walDir != "" {
		policy, err := wal.ParseSyncPolicy(*walSync)
		if err != nil {
			log.Fatal(err)
		}
		if err := os.MkdirAll(*walDir, 0o755); err != nil {
			log.Fatalf("create journal directory: %v", err)
		}
		start := time.Now()
		journal, restored, err = core.OpenJournal(*walDir, core.JournalOptions{
			Sync: policy, SyncEvery: *walSyncEvery, Logf: log.Printf,
		}, bootstrap)
		if err != nil {
			log.Fatalf("open journal %s: %v", *walDir, err)
		}
		db, platform = journal.DB(), journal.Platform()
		st := journal.Status()
		if restored {
			log.Printf("recovered journal %s in %v (image LSN %d, replayed %d record(s), %d users, %d triples)",
				*walDir, time.Since(start).Round(time.Millisecond),
				st.Start, st.LSN-st.Start, len(platform.Users()), platform.Shared().Len())
		} else {
			log.Printf("initialised journal %s (sync policy %s)", *walDir, st.Policy)
		}
	} else {
		var err error
		db, platform, err = bootstrap()
		if err != nil {
			log.Fatal(err)
		}
	}

	var m *core.Mapping
	if *mapping != "" {
		f, err := os.Open(*mapping)
		if err != nil {
			log.Fatalf("open mapping: %v", err)
		}
		m, err = core.LoadMapping(f)
		f.Close()
		if err != nil {
			log.Fatalf("parse mapping: %v", err)
		}
	}

	enricher := core.New(db, platform, m)
	enricher.Activity = core.NewActivity() // feeds /api/v1/peers?by=activity
	platform.SetConceptChecker(core.NewConceptChecker(db, enricher.Mapping))

	enricher.SetExecOptions(core.ExecOptions{PartialResults: *partial})

	var health *fdw.Health
	if *attach != "" {
		client, err := fdw.DialConfig(*attach, fdw.Config{Name: *attach, RequestTimeout: *sourceTimeout})
		if err != nil {
			log.Fatalf("attach %s: %v", *attach, err)
		}
		n, err := client.Attach(db.Catalog(), "remote_")
		if err != nil {
			log.Fatalf("import foreign schema: %v", err)
		}
		log.Printf("attached %d foreign table(s) from %s (prefix remote_)", n, *attach)
		health = fdw.NewHealth()
		health.Register(client)
		if *healthEvery > 0 {
			go health.Poll(context.Background(), *healthEvery)
		}
	}

	// save compacts the journal under -wal and reports whether it
	// succeeded. A failed save on a shutdown signal must surface as a
	// non-zero exit — the operator believes the state is on disk.
	save := func(reason string) bool {
		if journal == nil {
			return true
		}
		start := time.Now()
		st, err := journal.Compact()
		if err != nil {
			log.Printf("journal compaction (%s) failed: %v", reason, err)
			return false
		}
		log.Printf("compacted journal at LSN %d (%v, %s)", st.Start, time.Since(start).Round(time.Millisecond), reason)
		return true
	}

	if *compactEvery > 0 {
		go func() {
			for range time.Tick(*compactEvery) {
				save("interval")
			}
		}()
	}

	srv := rest.NewServer(enricher)
	if *cacheEntries > 0 {
		srv.SetResultCache(serve.NewCache(*cacheEntries, *cacheBytes))
	}
	if *maxInflight > 0 {
		srv.SetAdmission(serve.NewLimiter(*maxInflight, *inflightQueue))
		log.Printf("admission control: %d in flight, %d queued", *maxInflight, *inflightQueue)
	}
	if journal != nil {
		srv.SetJournal(journal)
	}
	if health != nil {
		srv.SetHealth(health)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	// Buffered for two signals: the first drains in-flight requests and
	// triggers the final save, the second (operator impatience or a
	// supervisor escalating) forces immediate exit instead of hanging in a
	// slow drain or save.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		go func() {
			second := <-sigs
			log.Printf("second signal (%s) during shutdown: forcing immediate exit", second)
			os.Exit(130)
		}()
		// Stop accepting connections and drain in-flight requests before
		// the final save, so a mutation acknowledged just before the
		// signal lands in the saved state; a stuck handler forfeits the
		// drain after the timeout rather than blocking the save forever.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("HTTP drain (%s) incomplete: %v", sig, err)
		}
		cancel()
		ok := save(sig.String())
		if journal != nil {
			if err := journal.Close(); err != nil {
				log.Printf("close journal: %v", err)
				ok = false
			}
		}
		if !ok {
			log.Printf("shutdown (%s) with FAILED save: durable state is stale", sig)
			os.Exit(1)
		}
		os.Exit(0)
	}()

	if restored {
		log.Printf("CroSSE platform on %s (databank: %d tables, restored)", *addr, len(db.Catalog().Names()))
	} else {
		log.Printf("CroSSE platform on %s (databank: %d landfills)", *addr, *scale)
	}
	hint := *addr
	if strings.HasPrefix(hint, ":") {
		hint = "localhost" + hint
	}
	fmt.Println("try: curl -s " + hint + "/api/v1/tables")
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	// Shutdown in progress: the signal handler finishes the save and exits
	// the process.
	select {}
}
