package fdw

// pool_test.go — the session pool: concurrent round trips to one source
// run on separate connections, Close reaches every one of them, a raw-conn
// client queues its callers on its one session, a session whose
// cancellation watch fired never goes back to the pool, and a peer restart
// costs one retry however many sessions were pooled.

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crosse/internal/sqldb"
	"crosse/internal/sqlval"
)

// barrierRel blocks every scan until want scans are inside it at once,
// then emits three rows. release frees scans that never met (the test is
// over), so no server goroutine outlives it.
type barrierRel struct {
	want    int32
	arrived atomic.Int32
	all     chan struct{} // closed by the want-th arrival
	release chan struct{}
}

func newBarrierRel(t *testing.T, want int32) *barrierRel {
	r := &barrierRel{want: want, all: make(chan struct{}), release: make(chan struct{})}
	t.Cleanup(func() { close(r.release) })
	return r
}

func (r *barrierRel) Name() string { return "barrier" }
func (r *barrierRel) Schema() sqldb.Schema {
	return sqldb.Schema{{Name: "n", Type: sqlval.TypeInt}}
}
func (r *barrierRel) Scan(fn func([]sqlval.Value) bool) error {
	if r.arrived.Add(1) == r.want {
		close(r.all)
	}
	select {
	case <-r.all:
	case <-r.release:
		return errors.New("scans never overlapped")
	}
	for i := 0; i < 3; i++ {
		if !fn([]sqlval.Value{sqlval.NewInt(int64(i))}) {
			return nil
		}
	}
	return nil
}

// barrierClient serves rel over loopback TCP and returns a dialled client
// with its foreign table.
func barrierClient(t *testing.T, rel *barrierRel) (*Client, *ForeignTable) {
	t.Helper()
	remote := sqldb.NewDatabase()
	if err := remote.RegisterForeign(rel); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(remote)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	c, err := DialConfig(addr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ft, err := c.ForeignTable("barrier", "")
	if err != nil {
		t.Fatal(err)
	}
	return c, ft
}

// TestConcurrentScansOverlap: four scans that can only finish together
// finish, because each runs on its own connection.
func TestConcurrentScansOverlap(t *testing.T) {
	const n = 4
	c, ft := barrierClient(t, newBarrierRel(t, n))

	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			rows := 0
			err := ft.ScanWhere(context.Background(), "", sqlval.Value{}, nil, func([]sqlval.Value) bool {
				rows++
				return true
			})
			if err == nil && rows != 3 {
				err = errors.New("short scan")
			}
			errc <- err
		}()
	}
	timeout := time.After(5 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("scan: %v", err)
			}
		case <-timeout:
			t.Fatalf("%d of %d overlapping scans finished: round trips are serialised", i, n)
		}
	}
	if got := c.Conns(); got != n {
		t.Errorf("Conns() = %d after %d overlapping scans, want %d", got, n, n)
	}
}

// TestConcurrentCloseFailsEveryScan: Close with four scans in flight fails
// all of them promptly with ErrClientClosed and leaves no connection open.
func TestConcurrentCloseFailsEveryScan(t *testing.T) {
	const n = 4
	rel := newBarrierRel(t, n+1) // never met: every scan blocks
	c, ft := barrierClient(t, rel)

	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			errc <- ft.ScanWhere(context.Background(), "", sqlval.Value{}, nil, func([]sqlval.Value) bool { return true })
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); rel.arrived.Load() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d scans reached the server", rel.arrived.Load(), n)
		}
	}
	c.Close()
	timeout := time.After(100 * time.Millisecond)
	for i := 0; i < n; i++ {
		select {
		case err := <-errc:
			if !errors.Is(err, ErrClientClosed) {
				t.Fatalf("scan after Close = %v, want ErrClientClosed", err)
			}
		case <-timeout:
			t.Fatalf("%d of %d scans returned within 100ms of Close", i, n)
		}
	}
	if got := c.Conns(); got != 0 {
		t.Errorf("Conns() = %d after Close, want 0", got)
	}
}

// TestConcurrentCallersShareRawConn: a client over one raw conn cannot
// dial, so concurrent callers queue on its single session and each still
// gets its own complete answer.
func TestConcurrentCallersShareRawConn(t *testing.T) {
	c := pipePair(t, newRemote(t, 20))
	ft, err := c.ForeignTable("eu_registry", "")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, country := range []string{"IT", "FR", "DE", "ES"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows := 0
			err := ft.ScanEq("country", sqlval.NewString(country), func(row []sqlval.Value) bool {
				if row[1].Str() != country {
					t.Errorf("scan for %s got a row of %s", country, row[1].Str())
				}
				rows++
				return true
			})
			if err != nil || rows != 5 {
				t.Errorf("scan for %s = %d rows, %v; want 5", country, rows, err)
			}
		}()
	}
	wg.Wait()
	if got := c.Conns(); got != 1 {
		t.Errorf("Conns() = %d, want the one raw conn", got)
	}
}

// TestCancellationAfterLastRow: a context cancelled inside the last onRow
// fires the cancellation watch after the scan itself succeeded. The watch
// moved the connection's deadline into the past, so that session must not
// be pooled: with no request deadline to reset it, the next round trip
// would fail on it and burn a retry.
func TestCancellationAfterLastRow(t *testing.T) {
	// Two rows arrive as a batch of one and then a batch of one flushed
	// together with the terminal frame, so the terminal frame is already
	// buffered when the second row's callback cancels.
	srv := NewServer(newRemote(t, 2))
	var first *watchedConn
	c := NewClientDialer(Config{RequestTimeout: -1}, func() (net.Conn, error) {
		a, b := net.Pipe()
		go srv.ServeConn(a)
		if first == nil {
			first = &watchedConn{Conn: b, fired: make(chan struct{})}
			return first, nil
		}
		return b, nil
	})
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	rows := 0
	_, err := c.roundTrip(ctx, &request{Op: "scan", Table: "eu_registry"}, func([]sqlval.Value) bool {
		if rows++; rows == 2 {
			cancel()
		}
		return true
	})
	if err != nil || rows != 2 {
		t.Fatalf("scan cancelled in its last row = %d rows, %v", rows, err)
	}
	select {
	case <-first.fired:
	case <-time.After(5 * time.Second):
		t.Fatal("the cancellation watch never fired")
	}

	if got, err := scanAll(c, context.Background()); err != nil || len(got) != 2 {
		t.Fatalf("next scan = %d rows, %v", len(got), err)
	}
	if r := c.Retries(); r != 0 {
		t.Fatalf("Retries() = %d: the next scan ran on the session the watch broke", r)
	}
}

// watchedConn closes fired when a deadline in the past is set on it: the
// mark a fired cancellation watch leaves on its connection.
type watchedConn struct {
	net.Conn
	fired chan struct{}
	once  sync.Once
}

func (w *watchedConn) SetDeadline(d time.Time) error {
	if !d.IsZero() && time.Until(d) < 0 {
		w.once.Do(func() { close(w.fired) })
	}
	return w.Conn.SetDeadline(d)
}

// peerDialer hands out pipes and keeps their server ends, so a test can
// restart the peer: every connection it served dies at once.
type peerDialer struct {
	srv   *Server
	mu    sync.Mutex
	peers []net.Conn
}

func (d *peerDialer) dial() (net.Conn, error) {
	a, b := net.Pipe()
	d.mu.Lock()
	d.peers = append(d.peers, a)
	d.mu.Unlock()
	go d.srv.ServeConn(a)
	return b, nil
}

func (d *peerDialer) restart() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, p := range d.peers {
		p.Close()
	}
	d.peers = nil
}

// TestRestartedPeerCostsOneRetry: after a peer restart every pooled
// session is stale. The first round trip that fails on one closes them
// all, so only it pays a retry and the breaker sees one failure.
func TestRestartedPeerCostsOneRetry(t *testing.T) {
	d := &peerDialer{srv: NewServer(newRemote(t, 4))}
	c := NewClientDialer(Config{Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}}, d.dial)
	defer c.Close()
	var pooled []*session
	for i := 0; i < 3; i++ {
		s, err := c.getSession(0)
		if err != nil {
			t.Fatal(err)
		}
		pooled = append(pooled, s)
	}
	for _, s := range pooled {
		c.putSession(s)
	}

	d.restart()
	for i := 0; i < 3; i++ {
		if got, err := scanAll(c, context.Background()); err != nil || len(got) != 4 {
			t.Fatalf("scan %d after restart = %d rows, %v", i, len(got), err)
		}
	}
	if r := c.Retries(); r != 1 {
		t.Errorf("Retries() = %d after a restart with 3 pooled sessions, want 1", r)
	}
	if n := c.Conns(); n != 1 {
		t.Errorf("Conns() = %d, want the one fresh connection", n)
	}
}
