package fdw

// fault_test.go — the resilience suite. A randomized property test drives
// the client through scripted connection faults (FaultConn) and asserts the
// federation contract: every operation ends within its deadline with either
// the complete correct result or a typed error — never a hang, never a
// silent partial. Deterministic tests cover the breaker state machine, the
// Close race, the server-side error drain paths, graceful degradation
// under PartialResults, and circuit recovery.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crosse/internal/engine"
	"crosse/internal/sqldb"
	"crosse/internal/sqlexec"
	"crosse/internal/sqlval"
)

// faultDialer hands the client one connection per dial, wrapping the first
// nFaulted of them with the scripted fault; later dials get clean pipes.
// Each connection is served by its own server goroutine.
type faultDialer struct {
	srv      *Server
	mode     FaultMode
	at       int
	latency  time.Duration
	nFaulted int32

	dials   atomic.Int32
	mu      sync.Mutex
	faulted []*FaultConn // the wrapped conns, in dial order
}

func (d *faultDialer) dial() (net.Conn, error) {
	a, b := net.Pipe()
	go d.srv.ServeConn(a)
	if d.dials.Add(1) <= d.nFaulted {
		fc := NewFaultConn(b, d.mode, d.at, d.latency)
		d.mu.Lock()
		d.faulted = append(d.faulted, fc)
		d.mu.Unlock()
		return fc, nil
	}
	return b, nil
}

// firstFaulted returns the first wrapped connection the dialer handed out.
func (d *faultDialer) firstFaulted() *FaultConn {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.faulted[0]
}

// scanAll collects every eu_registry row as strings via a raw scan round
// trip (no schema fetch, so the trial's op budget is spent on the scan).
func scanAll(c *Client, ctx context.Context) ([]string, error) {
	var got []string
	_, err := c.roundTrip(ctx, &request{Op: "scan", Table: "eu_registry"}, func(row []sqlval.Value) bool {
		got = append(got, row[0].Str()+"|"+row[1].Str()+"|"+row[2].String())
		return true
	})
	return got, err
}

// TestFaultProperty is the randomized property suite: 48 trials, each with
// a random fault mode injected at a random operation of the first
// connection's first scan. Invariant per trial: the scan returns within a
// bounded time, and a nil error implies the complete, correct result.
// Afterwards the client must recover: a follow-up scan over a clean
// connection succeeds.
//
// The trigger is drawn as at ∈ [0,16), a position in sixteenths of the
// operations one clean scan takes (measured below, so the suite follows
// the wire's frame count), and every trial checks that its fault really
// fired during the first scan rather than in the recovery scan.
func TestFaultProperty(t *testing.T) {
	remote := newRemote(t, 20)
	var want []string
	tab, _ := remote.Table("eu_registry")
	tab.Scan(func(row []sqlval.Value) bool {
		want = append(want, row[0].Str()+"|"+row[1].Str()+"|"+row[2].String())
		return true
	})

	// One clean scan through a pass-through FaultConn counts the reads and
	// writes a scan takes on the wire.
	clean := &faultDialer{srv: NewServer(remote), mode: FaultNone, nFaulted: 1}
	cc := NewClientDialer(Config{}, clean.dial)
	if got, err := scanAll(cc, context.Background()); err != nil || len(got) != len(want) {
		t.Fatalf("clean scan = %d rows, %v", len(got), err)
	}
	scanOps := clean.firstFaulted().Ops()
	cc.Close()
	t.Logf("one clean scan = %d operations", scanOps)

	modes := []FaultMode{FaultNone, FaultLatency, FaultError, FaultShortWrite, FaultHangup, FaultBlackhole}
	rng := rand.New(rand.NewSource(7))
	const trials = 48
	const reqTimeout = 200 * time.Millisecond

	for trial := 0; trial < trials; trial++ {
		mode := modes[rng.Intn(len(modes))]
		at := rng.Intn(16)
		latency := time.Duration(rng.Intn(400)) * time.Millisecond
		t.Run(fmt.Sprintf("trial%02d_mode%d_at%d", trial, mode, at), func(t *testing.T) {
			t.Parallel()
			span := scanOps
			if mode == FaultShortWrite {
				// A scan writes once, its request at op 0; a later trigger
				// would wait for the recovery scan's write.
				span = 1
			}
			op := at * span / 16
			d := &faultDialer{srv: NewServer(remote), mode: mode, at: op, latency: latency, nFaulted: 1}
			c := NewClientDialer(Config{
				RequestTimeout: reqTimeout,
				Retry:          RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
				Breaker:        BreakerConfig{FailureThreshold: 100, Probe: time.Millisecond},
			}, d.dial)
			defer c.Close()

			start := time.Now()
			got, err := scanAll(c, context.Background())
			elapsed := time.Since(start)
			if mode != FaultNone && !d.firstFaulted().Fired() {
				t.Fatalf("fault at op %d of %d never fired during the first scan", op, scanOps)
			}

			// Bounded: one deadline plus retries' backoff plus slack. A
			// hang fails here (and -timeout catches a total wedge).
			if limit := 4*reqTimeout + time.Second; elapsed > limit {
				t.Fatalf("scan took %v (limit %v): not deadline-bounded", elapsed, limit)
			}
			if err == nil {
				if len(got) != len(want) {
					t.Fatalf("nil error with %d/%d rows: silent partial result", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("row %d = %q, want %q", i, got[i], want[i])
					}
				}
			} else {
				t.Logf("typed error after %v: %v", elapsed, err)
			}

			// Recovery: the next scan runs over a clean connection.
			got, err = scanAll(c, context.Background())
			if err != nil {
				t.Fatalf("post-fault scan failed: %v", err)
			}
			if len(got) != len(want) {
				t.Fatalf("post-fault scan rows = %d, want %d", len(got), len(want))
			}
		})
	}
}

// TestBreakerStateMachine walks closed → open → half-open → closed with an
// injected clock.
func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(1000, 0)
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, Probe: time.Second})
	b.now = func() time.Time { return now }
	boom := errors.New("boom")

	for i := 0; i < 2; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker rejected: %v", err)
		}
		b.Failure(boom)
	}
	if st, _ := b.State(); st != BreakerClosed {
		t.Fatalf("state after 2 failures = %v, want closed", st)
	}
	// A success resets the consecutive-failure count.
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Success()
	for i := 0; i < 3; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("failure %d rejected early: %v", i, err)
		}
		b.Failure(boom)
	}
	if st, _ := b.State(); st != BreakerOpen {
		t.Fatalf("state after threshold = %v, want open", st)
	}
	// Open: fail fast with the typed error.
	err := b.Allow()
	if err == nil || !errors.Is(err, ErrSourceDown) {
		t.Fatalf("open breaker Allow = %v, want ErrSourceDown", err)
	}
	var sd *SourceDownError
	if !errors.As(err, &sd) || sd.Reason != boom {
		t.Fatalf("rejection must carry the opening failure, got %v", err)
	}

	// After the probe interval one request goes through as the probe.
	now = now.Add(1100 * time.Millisecond)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe rejected: %v", err)
	}
	if st, _ := b.State(); st != BreakerHalfOpen {
		t.Fatalf("state during probe = %v, want half-open", st)
	}
	// Concurrent requests are rejected while the probe is pending.
	if err := b.Allow(); err == nil {
		t.Fatal("second request during probe must fail fast")
	}
	// Probe failure re-opens for another interval.
	b.Failure(boom)
	if st, _ := b.State(); st != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", st)
	}
	now = now.Add(1100 * time.Millisecond)
	if err := b.Allow(); err != nil {
		t.Fatalf("second probe rejected: %v", err)
	}
	b.Success()
	if st, lastErr := b.State(); st != BreakerClosed || lastErr != nil {
		t.Fatalf("state after successful probe = %v (lastErr %v), want closed/nil", st, lastErr)
	}
}

// TestRetryRedialsTransparently: a connection that dies mid-stream costs
// one retry, not the result — the client re-dials and re-runs the request.
func TestRetryRedialsTransparently(t *testing.T) {
	remote := newRemote(t, 10)
	// Hangup on the very first server response: the request is sent, the
	// stream dies before any row arrives, so the retry is duplicate-free.
	d := &faultDialer{srv: NewServer(remote), mode: FaultHangup, at: 1, nFaulted: 1}
	c := NewClientDialer(Config{
		RequestTimeout: time.Second,
		Retry:          RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
	}, d.dial)
	defer c.Close()

	got, err := scanAll(c, context.Background())
	if err != nil {
		t.Fatalf("scan with one hangup: %v", err)
	}
	if len(got) != 10 {
		t.Fatalf("rows = %d, want 10", len(got))
	}
	if c.Retries() == 0 {
		t.Error("expected at least one transparent retry")
	}
	if d.dials.Load() < 2 {
		t.Errorf("dials = %d, want a re-dial", d.dials.Load())
	}
}

// TestNoRetryAfterRowsDelivered: a fault after rows reached the consumer
// must surface ErrInterrupted, not a transparent retry that would
// duplicate rows.
func TestNoRetryAfterRowsDelivered(t *testing.T) {
	remote := newRemote(t, 10)
	// Op 0 is the request write; ops 1.. are reads, one per frame the
	// server flushes (batches of 1, 2, 4, … rows). Kill the conn at the
	// 4th read, after the first three batches were decoded and delivered.
	d := &faultDialer{srv: NewServer(remote), mode: FaultHangup, at: 4, nFaulted: 1}
	c := NewClientDialer(Config{
		RequestTimeout: time.Second,
		Retry:          RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
	}, d.dial)
	defer c.Close()

	got, err := scanAll(c, context.Background())
	if err == nil {
		t.Fatalf("expected mid-stream interruption, got %d clean rows", len(got))
	}
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("error = %v, want ErrInterrupted", err)
	}
	if len(got) == 0 {
		t.Fatal("test needs delivered rows before the fault; got none")
	}
	if len(got) >= 10 {
		t.Fatalf("got %d rows, fault never fired", len(got))
	}
}

// TestDeadSourceBeforeBreakerOpens: a source that refuses every dial
// while its breaker is still closed fails the round trip with
// ErrSourceDown naming the source — what a partial-results scan skips —
// not with a bare transport error that fails the whole query.
func TestDeadSourceBeforeBreakerOpens(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens there any more: every dial is refused
	c := newClient(Config{
		Name:    "registry",
		Retry:   RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
		Breaker: BreakerConfig{FailureThreshold: 100},
	}, func(timeout time.Duration) (net.Conn, error) { return net.DialTimeout("tcp", addr, timeout) })
	defer c.Close()

	_, err = scanAll(c, context.Background())
	if !errors.Is(err, ErrSourceDown) {
		t.Fatalf("scan of a dead source: %v, want ErrSourceDown", err)
	}
	if got := sqldb.SourceOf(err, "fallback"); got != "registry" {
		t.Fatalf("SourceOf = %q, want registry", got)
	}
	var sd *SourceDownError
	if !errors.As(err, &sd) || sd.State != BreakerClosed || !strings.Contains(fmt.Sprint(sd.Reason), "3 attempt(s) failed") {
		t.Fatalf("error %v: want a SourceDownError with the breaker closed and the attempts as its reason", err)
	}
	if st, _ := c.Breaker().State(); st != BreakerClosed {
		t.Fatalf("breaker %v after the scan: the case under test needs it closed", st)
	}
}

// TestRequestDeadline: a blackholed peer costs one request deadline, not a
// hang, and the error says whose deadline ran out. The source's own
// RequestTimeout expiring with no row delivered reports the source down,
// so a partial-results scan skips it; the caller's context deadline
// expiring first is the caller's context.DeadlineExceeded.
func TestRequestDeadline(t *testing.T) {
	remote := newRemote(t, 10)
	for _, tc := range []struct {
		name       string
		timeout    time.Duration // the source's RequestTimeout
		ctxTimeout time.Duration // the caller's deadline; 0 = none
		sourceDown bool
	}{
		{"source timeout", 100 * time.Millisecond, 0, true},
		{"caller deadline", 5 * time.Second, 100 * time.Millisecond, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := &faultDialer{srv: NewServer(remote), mode: FaultBlackhole, at: 1, nFaulted: 99}
			c := NewClientDialer(Config{
				Name:           "blackholed",
				RequestTimeout: tc.timeout,
				Retry:          RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
			}, d.dial)
			defer c.Close()
			ctx := context.Background()
			if tc.ctxTimeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, tc.ctxTimeout)
				defer cancel()
			}

			start := time.Now()
			_, err := scanAll(c, ctx)
			elapsed := time.Since(start)
			if err == nil {
				t.Fatal("blackholed peer must fail the request")
			}
			if elapsed > time.Second {
				t.Fatalf("deadline took %v, want ~100ms", elapsed)
			}
			var sd *SourceDownError
			if down := errors.As(err, &sd); down != tc.sourceDown || errors.Is(err, ErrSourceDown) != tc.sourceDown {
				t.Fatalf("error %v: source down = %v, want %v", err, down, tc.sourceDown)
			}
			if tc.sourceDown && sqldb.SourceOf(err, "fallback") != "blackholed" {
				t.Fatalf("error %v does not name the source", err)
			}
			if deadline := errors.Is(err, context.DeadlineExceeded); deadline == tc.sourceDown {
				t.Fatalf("error %v: context.DeadlineExceeded = %v, want %v", err, deadline, !tc.sourceDown)
			}
		})
	}
}

// TestContextCancellation: cancelling the caller's context aborts a
// blocked round trip promptly.
func TestContextCancellation(t *testing.T) {
	remote := newRemote(t, 10)
	d := &faultDialer{srv: NewServer(remote), mode: FaultBlackhole, at: 1, nFaulted: 99}
	c := NewClientDialer(Config{
		RequestTimeout: -1, // no request deadline: only the context bounds it
		Retry:          RetryPolicy{MaxAttempts: 1},
	}, d.dial)
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := scanAll(c, ctx)
	if err == nil {
		t.Fatal("cancelled scan must fail")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, want prompt", elapsed)
	}
}

// TestCloseDuringScan: Close racing an in-flight round trip surfaces
// ErrClientClosed (not a decoder panic or a garbage read).
func TestCloseDuringScan(t *testing.T) {
	remote := sqldb.NewDatabase()
	if err := remote.RegisterForeign(&slowRel{name: "slow", rows: 200, delay: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(remote)
	a, b := net.Pipe()
	go srv.ServeConn(a)
	c := NewClientConfig(b, Config{Retry: RetryPolicy{MaxAttempts: 1}})

	errc := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		n := 0
		_, err := c.roundTrip(context.Background(), &request{Op: "scan", Table: "slow"}, func([]sqlval.Value) bool {
			n++
			if n == 3 {
				close(started)
			}
			return true
		})
		errc <- err
	}()
	<-started
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("scan closed mid-flight must error")
		}
		if !errors.Is(err, ErrClientClosed) && !errors.Is(err, ErrInterrupted) {
			t.Fatalf("error = %v, want ErrClientClosed (or ErrInterrupted wrapping it)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("scan did not return after Close")
	}
	// Every operation on a closed client fails with the typed error.
	if _, err := c.Tables(); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Tables on closed client = %v, want ErrClientClosed", err)
	}
}

// slowRel is a relation whose scan sleeps between rows — enough time for a
// concurrent Close to land mid-stream. produced counts the rows it has
// emitted so far.
type slowRel struct {
	name     string
	rows     int
	delay    time.Duration
	produced atomic.Int64
}

func (s *slowRel) Name() string { return s.name }
func (s *slowRel) Schema() sqldb.Schema {
	return sqldb.Schema{{Name: "n", Type: sqlval.TypeInt}}
}
func (s *slowRel) Scan(fn func([]sqlval.Value) bool) error {
	for i := 0; i < s.rows; i++ {
		time.Sleep(s.delay)
		s.produced.Add(1)
		if !fn([]sqlval.Value{sqlval.NewInt(int64(i))}) {
			return nil
		}
	}
	return nil
}

// errRel streams emit rows and then fails — the server-side error paths.
type errRel struct {
	name string
	emit int
}

func (e *errRel) Name() string { return e.name }
func (e *errRel) Schema() sqldb.Schema {
	return sqldb.Schema{{Name: "n", Type: sqlval.TypeInt}}
}
func (e *errRel) Scan(fn func([]sqlval.Value) bool) error {
	for i := 0; i < e.emit; i++ {
		if !fn([]sqlval.Value{sqlval.NewInt(int64(i))}) {
			return nil
		}
	}
	return fmt.Errorf("storage exploded after %d rows", e.emit)
}

// TestServerErrorDrain covers the server-side error paths of roundTrip:
// the remote scan fails before any row, mid-stream after rows were
// delivered, and on the final row. In every case the client sees a typed
// remote error, stays protocol-synced, and remains usable.
func TestServerErrorDrain(t *testing.T) {
	for _, emit := range []int{0, 3, 9} {
		t.Run(fmt.Sprintf("afterRows%d", emit), func(t *testing.T) {
			remote := newRemote(t, 1)
			if err := remote.RegisterForeign(&errRel{name: "flaky", emit: emit}); err != nil {
				t.Fatal(err)
			}
			c := pipePair(t, remote)

			delivered := 0
			_, err := c.roundTrip(context.Background(), &request{Op: "scan", Table: "flaky"},
				func([]sqlval.Value) bool { delivered++; return true })
			if err == nil {
				t.Fatal("remote scan error must propagate")
			}
			if !strings.Contains(err.Error(), "storage exploded") {
				t.Fatalf("error = %v, want the remote failure text", err)
			}
			var re *remoteError
			if !errors.As(err, &re) {
				t.Fatalf("error = %T, want *remoteError (protocol stayed in sync)", err)
			}
			if errors.Is(err, ErrInterrupted) {
				t.Fatal("remote errors are not stream interruptions: no retry ambiguity")
			}
			if delivered != emit {
				t.Fatalf("delivered %d rows before the error, want %d", delivered, emit)
			}

			// A remote error neither drops the connection nor trips the
			// breaker: the peer is alive.
			if st, _ := c.Breaker().State(); st != BreakerClosed {
				t.Fatalf("breaker = %v after remote error, want closed", st)
			}
			if _, err := c.Tables(); err != nil {
				t.Fatalf("client unusable after remote error: %v", err)
			}
			got, err := scanAll(c, context.Background())
			if err != nil || len(got) != 1 {
				t.Fatalf("follow-up scan = %d rows, %v", len(got), err)
			}
		})
	}
}

// TestEarlyStopThenError: the consumer stops mid-scan and the remote then
// errors during the drain — the consumer already has everything it asked
// for, so the round trip reports success.
func TestEarlyStopThenError(t *testing.T) {
	remote := newRemote(t, 1)
	if err := remote.RegisterForeign(&errRel{name: "flaky", emit: 6}); err != nil {
		t.Fatal(err)
	}
	c := pipePair(t, remote)
	n := 0
	_, err := c.roundTrip(context.Background(), &request{Op: "scan", Table: "flaky"},
		func([]sqlval.Value) bool { n++; return n < 2 })
	if err != nil {
		t.Fatalf("early-stopped scan = %v, want nil (consumer got all it asked for)", err)
	}
	if n != 2 {
		t.Fatalf("consumed %d rows, want 2", n)
	}
	// Client still usable afterwards (over the same or a fresh conn).
	if _, err := c.Tables(); err != nil {
		t.Fatalf("client unusable after early stop: %v", err)
	}
}

// twoSourceEngine attaches two remote registries, healthy + faultable,
// and returns the local engine plus source B's dialer swap control.
type flipDialer struct {
	srv     *Server
	blocked atomic.Bool
}

func (d *flipDialer) dial() (net.Conn, error) {
	a, b := net.Pipe()
	go d.srv.ServeConn(a)
	if d.blocked.Load() {
		return NewFaultConn(b, FaultBlackhole, 0, 0), nil
	}
	return b, nil
}

// TestGracefulDegradationTwoSources is the tentpole acceptance test: two
// remote sources; source B becomes a blackhole. Default mode fails fast
// with ErrSourceDown once the breaker opens; PartialResults returns the
// healthy source's rows with B named in SkippedSources; after B recovers,
// the half-open probe closes the circuit and full results resume.
func TestGracefulDegradationTwoSources(t *testing.T) {
	remoteA := sqldb.NewDatabase()
	if _, err := sqlexec.Exec(remoteA, `CREATE TABLE reg_a (id INT, name TEXT)`); err != nil {
		t.Fatal(err)
	}
	tabA, _ := remoteA.Table("reg_a")
	for i := 0; i < 4; i++ {
		tabA.Insert([]sqlval.Value{sqlval.NewInt(int64(i)), sqlval.NewString(fmt.Sprintf("a%d", i))})
	}
	remoteB := sqldb.NewDatabase()
	if _, err := sqlexec.Exec(remoteB, `CREATE TABLE reg_b (id INT, grade TEXT)`); err != nil {
		t.Fatal(err)
	}
	tabB, _ := remoteB.Table("reg_b")
	for i := 0; i < 4; i++ {
		tabB.Insert([]sqlval.Value{sqlval.NewInt(int64(i)), sqlval.NewString(fmt.Sprintf("g%d", i))})
	}

	dA := &flipDialer{srv: NewServer(remoteA)}
	dB := &flipDialer{srv: NewServer(remoteB)}
	cfg := Config{
		RequestTimeout: 100 * time.Millisecond,
		Retry:          RetryPolicy{MaxAttempts: 1},
		Breaker:        BreakerConfig{FailureThreshold: 1, Probe: 150 * time.Millisecond},
	}
	cfgA := cfg
	cfgA.Name = "source-a"
	cfgB := cfg
	cfgB.Name = "source-b"
	cA := NewClientDialer(cfgA, dA.dial)
	cB := NewClientDialer(cfgB, dB.dial)
	defer cA.Close()
	defer cB.Close()

	local := engine.Open()
	if _, err := cA.Attach(local.Catalog(), "ra_"); err != nil {
		t.Fatal(err)
	}
	if _, err := cB.Attach(local.Catalog(), "rb_"); err != nil {
		t.Fatal(err)
	}

	const q = `SELECT a.name, b.grade FROM ra_reg_a a LEFT JOIN rb_reg_b b ON a.id = b.id ORDER BY a.name`

	// Baseline: both sources healthy, grades joined in.
	res, err := local.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 || res.Rows[0][1].IsNull() {
		t.Fatalf("baseline = %d rows (first grade %v)", len(res.Rows), res.Rows[0][1])
	}

	// Source B goes dark: its connections die, re-dials blackhole.
	dB.blocked.Store(true)
	dropIdle(t, cB)

	// First query eats one deadline on B and trips its breaker.
	if _, err := local.Query(q); err == nil {
		t.Fatal("query with blackholed source must fail in default mode")
	}
	if st, _ := cB.Breaker().State(); st != BreakerOpen {
		t.Fatalf("breaker B = %v after deadline, want open", st)
	}

	// Now the circuit is open: fail fast with the typed error, no deadline.
	start := time.Now()
	_, err = local.Query(q)
	if err == nil || !errors.Is(err, ErrSourceDown) {
		t.Fatalf("open-circuit query error = %v, want ErrSourceDown", err)
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Errorf("fail-fast took %v, want instant (no network touch)", elapsed)
	}

	// Degraded mode: healthy source's rows survive, B's side is NULL,
	// and the skipped source is named.
	res, err = local.QueryOpts(q, sqlexec.Options{PartialResults: true})
	if err != nil {
		t.Fatalf("partial-results query: %v", err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("degraded rows = %d, want 4 (healthy source intact)", len(res.Rows))
	}
	for i, row := range res.Rows {
		if row[0].IsNull() || !row[1].IsNull() {
			t.Fatalf("degraded row %d = %v, want (name, NULL)", i, row)
		}
	}
	if len(res.SkippedSources) != 1 || res.SkippedSources[0] != "source-b" {
		t.Fatalf("SkippedSources = %v, want [source-b]", res.SkippedSources)
	}

	// B recovers. After the probe interval the next query is the half-open
	// probe: it succeeds, closes the circuit, and full results resume.
	dB.blocked.Store(false)
	time.Sleep(cfg.Breaker.Probe + 20*time.Millisecond)
	res, err = local.Query(q)
	if err != nil {
		t.Fatalf("post-recovery query: %v", err)
	}
	if len(res.Rows) != 4 || res.Rows[0][1].IsNull() {
		t.Fatalf("post-recovery rows = %d (first grade %v), want full join", len(res.Rows), res.Rows[0][1])
	}
	if st, _ := cB.Breaker().State(); st != BreakerClosed {
		t.Fatalf("breaker B = %v after recovery, want closed", st)
	}
}

// dropIdle kills every idle session of the client, as a peer that dies
// between round trips would (test-only).
func dropIdle(t *testing.T, c *Client) {
	t.Helper()
	if c.Conns() == 0 {
		t.Fatal("client has no live connection")
	}
	c.closeIdle()
}

// TestHealthRegistry: snapshots reflect breaker state and PollOnce's pings
// both probe and timestamp each source.
func TestHealthRegistry(t *testing.T) {
	remote := newRemote(t, 3)
	d := &flipDialer{srv: NewServer(remote)}
	c := NewClientDialer(Config{
		Name:           "registry-x",
		RequestTimeout: 100 * time.Millisecond,
		Retry:          RetryPolicy{MaxAttempts: 1},
		Breaker:        BreakerConfig{FailureThreshold: 1, Probe: 100 * time.Millisecond},
	}, d.dial)
	defer c.Close()

	h := NewHealth()
	h.Register(c)
	h.PollOnce(context.Background())
	snap := h.Snapshot()
	if len(snap) != 1 || snap[0].Name != "registry-x" || !snap[0].Healthy() || snap[0].Conns != 1 {
		t.Fatalf("snapshot = %+v, want healthy registry-x on one connection", snap)
	}
	if snap[0].LastProbe.IsZero() {
		t.Error("PollOnce must record the probe time")
	}
	if !h.AllHealthy() {
		t.Error("AllHealthy with a closed circuit")
	}

	// Source dies: the next poll trips the breaker and reports it.
	d.blocked.Store(true)
	dropIdle(t, c)
	h.PollOnce(context.Background())
	snap = h.Snapshot()
	if snap[0].Healthy() || snap[0].State != "open" {
		t.Fatalf("snapshot after death = %+v, want open", snap[0])
	}
	if snap[0].LastErr == "" {
		t.Error("open circuit must report its reason")
	}
	if h.AllHealthy() {
		t.Error("AllHealthy with an open circuit")
	}

	// Recovery via polling alone: after the probe interval the ping closes
	// the circuit.
	d.blocked.Store(false)
	time.Sleep(120 * time.Millisecond)
	h.PollOnce(context.Background())
	if snap = h.Snapshot(); !snap[0].Healthy() {
		t.Fatalf("snapshot after recovery = %+v, want closed", snap[0])
	}
}

var _ sqldb.Relation = (*slowRel)(nil)
var _ sqldb.Relation = (*errRel)(nil)
