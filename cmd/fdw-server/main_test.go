package main

import (
	"log"
	"net"
	"os"
	"regexp"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"crosse/internal/dataset"
	"crosse/internal/engine"
	"crosse/internal/fdw"
)

var listeningRe = regexp.MustCompile(`FDW data node on (\S+)`)

// logTap reports the address run logs once it listens.
type logTap chan string

func (l logTap) Write(p []byte) (int, error) {
	if m := listeningRe.FindSubmatch(p); m != nil {
		select {
		case l <- string(m[1]):
		default:
		}
	}
	return len(p), nil
}

// run serves the registry on a loopback port until stopped: a client
// lists the databank's tables through it, and the stop returns nil.
func TestRunServesRegistry(t *testing.T) {
	tap := make(logTap, 1)
	log.SetOutput(tap)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })

	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- run([]string{"-addr", "127.0.0.1:0", "-scale", "20"}, stop) }()
	var addr string
	select {
	case addr = <-tap:
	case err := <-done:
		t.Fatalf("run returned before listening: %v", err)
	case <-time.After(20 * time.Second):
		t.Fatal("run did not listen within 20s")
	}

	client, err := fdw.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.Tables()
	client.Close()
	if err != nil {
		t.Fatal(err)
	}
	db := engine.Open()
	if _, err := db.ExecScript(dataset.Schema); err != nil {
		t.Fatal(err)
	}
	slices.Sort(got)
	if want := db.Catalog().Names(); !slices.Equal(got, want) {
		t.Errorf("tables = %v, want %v", got, want)
	}

	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after SIGTERM: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("run ignored the stop")
	}
	if _, err := fdw.Dial(addr); err == nil {
		t.Error("the data node still accepts connections after the stop")
	}
}

// Invalid flags fail in run before anything is populated or bound: the
// address is held by the test, so an attempt to bind it would fail with a
// different error.
func TestRunRejectsBadFlags(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-scale", "0"}, "-scale must be at least 1"},
		{[]string{"-scale", "-3"}, "-scale must be at least 1"},
		{[]string{"-seed", "x"}, "invalid value"},
		{[]string{"-nope"}, "not defined"},
	} {
		err := run(append([]string{"-addr", ln.Addr().String()}, c.args...), nil)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run %v: err = %v, want it to mention %s", c.args, err, c.want)
		}
	}
}
