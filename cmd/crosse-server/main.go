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
	"net"
	"net/http"
	"os"
	"os/signal"
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
	// The first SIGINT/SIGTERM drains in-flight requests and triggers the
	// final save; a second one (operator impatience or a supervisor
	// escalating) forces immediate exit instead of hanging in a slow drain
	// or save.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	stop := make(chan os.Signal, 1)
	go func() {
		stop <- <-sigs
		log.Printf("second signal (%s) during shutdown: forcing immediate exit", <-sigs)
		os.Exit(130)
	}()
	if err := run(os.Args[1:], stop); err != nil {
		log.Fatal(err)
	}
}

// run parses args, boots the platform and serves until a signal arrives
// on stop; it then drains in-flight requests, saves the journal and
// returns. Every flag is validated before anything is bootstrapped, opened
// or bound, and every failure is returned rather than exiting.
func run(args []string, stop <-chan os.Signal) (err error) {
	fl := flag.NewFlagSet("crosse-server", flag.ContinueOnError)
	var (
		addr          = fl.String("addr", ":8080", "HTTP listen address")
		scale         = fl.Int("scale", 200, "synthetic databank size (landfills)")
		attach        = fl.String("attach", "", "FDW server address to attach as foreign tables")
		mapping       = fl.String("mapping", "", "resource mapping XML file")
		walDir        = fl.String("wal", "", "journal directory: write-ahead-log every mutation, recover via image + replay on boot")
		walSync       = fl.String("wal-sync", "interval", "WAL durability policy: always (fsync per ack, group-committed), interval, never")
		walSyncEvery  = fl.Duration("wal-sync-interval", 100*time.Millisecond, "fsync cadence under -wal-sync interval")
		compactEvery  = fl.Duration("compact-interval", 0, "rewrite image + truncate log periodically (0 disables; requires -wal)")
		partial       = fl.Bool("partial-results", false, "degrade gracefully when a remote source is down: skip it (reported in query stats) instead of failing the query")
		sourceTimeout = fl.Duration("source-timeout", 30*time.Second, "per-request deadline for remote FDW sources")
		healthEvery   = fl.Duration("health-interval", 2*time.Second, "remote-source health poll cadence (0 disables polling)")
		cacheEntries  = fl.Int("cache-entries", 4096, "enriched-result cache entry bound (0 disables result caching)")
		cacheBytes    = fl.Int64("cache-bytes", 64<<20, "enriched-result cache byte budget")
		maxInflight   = fl.Int("max-inflight", 0, "maximum concurrently executing queries (0 = unlimited)")
		inflightQueue = fl.Int("inflight-queue", 32, "queries allowed to wait for an execution slot before a 429 (requires -max-inflight)")
	)
	if err := fl.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *scale < 1 {
		return fmt.Errorf("-scale must be at least 1, got %d", *scale)
	}
	if *compactEvery > 0 && *walDir == "" {
		return errors.New("-compact-interval requires -wal")
	}
	policy, err := wal.ParseSyncPolicy(*walSync)
	if err != nil {
		return err
	}
	var m *core.Mapping
	if *mapping != "" {
		f, err := os.Open(*mapping)
		if err != nil {
			return fmt.Errorf("open mapping: %w", err)
		}
		m, err = core.LoadMapping(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("parse mapping: %w", err)
		}
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
		if err := os.MkdirAll(*walDir, 0o755); err != nil {
			return fmt.Errorf("create journal directory: %w", err)
		}
		start := time.Now()
		journal, restored, err = core.OpenJournal(*walDir, core.JournalOptions{
			Sync: policy, SyncEvery: *walSyncEvery, Logf: log.Printf,
		}, bootstrap)
		if err != nil {
			return fmt.Errorf("open journal %s: %w", *walDir, err)
		}
		// The one close of the journal, on every return; its error joins
		// run's, so a failed final flush exits non-zero too.
		defer func() {
			if cerr := journal.Close(); cerr != nil {
				err = errors.Join(err, fmt.Errorf("close journal %s: %w", *walDir, cerr))
			}
		}()
		db, platform = journal.DB(), journal.Platform()
		st := journal.Status()
		if restored {
			log.Printf("recovered journal %s in %v (image LSN %d, replayed %d record(s), %d users, %d triples)",
				*walDir, time.Since(start).Round(time.Millisecond),
				st.Start, st.LSN-st.Start, len(platform.Users()), platform.Shared().Len())
		} else {
			log.Printf("initialised journal %s (sync policy %s)", *walDir, st.Policy)
		}
	} else if db, platform, err = bootstrap(); err != nil {
		return err
	}

	enricher := core.New(db, platform, m)
	enricher.Activity = core.NewActivity() // feeds /api/v1/peers?by=activity
	platform.SetConceptChecker(core.NewConceptChecker(db, enricher.Mapping))

	enricher.SetExecOptions(core.ExecOptions{PartialResults: *partial})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var health *fdw.Health
	if *attach != "" {
		client, err := fdw.DialConfig(*attach, fdw.Config{Name: *attach, RequestTimeout: *sourceTimeout})
		if err != nil {
			return fmt.Errorf("attach %s: %w", *attach, err)
		}
		n, err := client.Attach(db.Catalog(), "remote_")
		if err != nil {
			return fmt.Errorf("import foreign schema: %w", err)
		}
		log.Printf("attached %d foreign table(s) from %s (prefix remote_)", n, *attach)
		health = fdw.NewHealth()
		health.Register(client)
		if *healthEvery > 0 {
			go health.Poll(ctx, *healthEvery)
		}
	}

	// save compacts the journal under -wal. A failed save on a shutdown
	// signal must surface as a non-zero exit — the operator believes the
	// state is on disk.
	save := func(reason string) error {
		if journal == nil {
			return nil
		}
		start := time.Now()
		st, err := journal.Compact()
		if err != nil {
			return fmt.Errorf("journal compaction (%s) failed: %w", reason, err)
		}
		log.Printf("compacted journal at LSN %d (%v, %s)", st.Start, time.Since(start).Round(time.Millisecond), reason)
		return nil
	}

	if *compactEvery > 0 {
		tick := time.NewTicker(*compactEvery)
		defer tick.Stop()
		go func() {
			for {
				select {
				case <-tick.C:
					if err := save("interval"); err != nil {
						log.Print(err)
					}
				case <-ctx.Done():
					return
				}
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

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()

	if restored {
		log.Printf("CroSSE platform on %s (databank: %d tables, restored)", ln.Addr(), len(db.Catalog().Names()))
	} else {
		log.Printf("CroSSE platform on %s (databank: %d landfills)", ln.Addr(), *scale)
	}
	hint := ln.Addr().String()
	if host, port, _ := net.SplitHostPort(hint); net.ParseIP(host).IsUnspecified() {
		hint = "localhost:" + port
	}
	fmt.Println("try: curl -s " + hint + "/api/v1/tables")

	var sig os.Signal
	select {
	case err := <-served:
		return err
	case sig = <-stop:
	}
	// Stop accepting connections and drain in-flight requests before the
	// final save, so a mutation acknowledged just before the signal lands
	// in the saved state; a stuck handler forfeits the drain after the
	// timeout rather than blocking the save forever.
	drain, cancelDrain := context.WithTimeout(ctx, 5*time.Second)
	if err := httpSrv.Shutdown(drain); err != nil {
		log.Printf("HTTP drain (%s) incomplete: %v", sig, err)
	}
	cancelDrain()
	if err := save(sig.String()); err != nil {
		return fmt.Errorf("shutdown (%s) with FAILED save, durable state is stale: %w", sig, err)
	}
	return nil
}
