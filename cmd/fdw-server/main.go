// Command fdw-server runs a standalone remote data node: a synthetic
// national landfill registry exposed over the FDW wire protocol, playing
// the role of the external databanks the SmartGround platform federates
// (the paper's postgres_fdw data sources).
//
// Usage:
//
//	fdw-server                      # :7070, default registry size
//	fdw-server -addr :7171 -scale 1000 -seed 7
//
// It logs the bound address once it listens, and SIGINT or SIGTERM closes
// the listener and every open connection. main_test.go runs it in process
// on a loopback port; cmd/crosse-server's tests kill a data node like it
// mid-scan under a real crosse-server.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"crosse/internal/dataset"
	"crosse/internal/engine"
	"crosse/internal/fdw"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], stop); err != nil {
		log.Fatal(err)
	}
}

// run parses args, populates the registry and serves it until a signal
// arrives on stop, then closes the server and returns. Every flag is
// validated before anything is populated or bound, and every failure is
// returned rather than exiting.
func run(args []string, stop <-chan os.Signal) error {
	fl := flag.NewFlagSet("fdw-server", flag.ContinueOnError)
	var (
		addr  = fl.String("addr", ":7070", "listen address")
		scale = fl.Int("scale", 500, "registry size (landfills)")
		seed  = fl.Int64("seed", 99, "generator seed")
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

	db := engine.Open()
	cfg := dataset.DefaultConfig()
	cfg.Landfills = *scale
	cfg.Seed = *seed
	if err := dataset.Populate(db, cfg); err != nil {
		return fmt.Errorf("populate registry: %w", err)
	}

	srv := fdw.NewServer(db.Catalog())
	bound, err := srv.Listen(*addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	log.Printf("FDW data node on %s exposing %v", bound, db.Catalog().Names())
	log.Printf("shutting down (%s)", <-stop)
	srv.Close() // stop the listener, drop open connections
	return nil
}
