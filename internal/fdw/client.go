package fdw

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"crosse/internal/sqldb"
	"crosse/internal/sqlval"
)

// Config tunes a Client's resilience envelope. The zero value picks
// defaults.
type Config struct {
	// Name identifies the source in errors, health reports and partial
	// results. Defaults to the dialled address (or "fdw" for raw conns).
	Name string
	// DialTimeout bounds each (re)connect attempt (default 5s).
	DialTimeout time.Duration
	// RequestTimeout bounds one whole round trip — send, stream, drain —
	// enforced through net.Conn.SetDeadline so a stalled peer cannot hang
	// the query (default 30s). A caller context with an earlier deadline
	// tightens it per call; RequestTimeout < 0 disables the deadline.
	RequestTimeout time.Duration
	// Retry bounds the transparent retry loop for transient transport
	// failures (see RetryPolicy).
	Retry RetryPolicy
	// Breaker tunes the per-source circuit breaker (see BreakerConfig).
	Breaker BreakerConfig
}

const (
	defaultDialTimeout    = 5 * time.Second
	defaultRequestTimeout = 30 * time.Second
)

func (c Config) withDefaults() Config {
	if c.DialTimeout <= 0 {
		c.DialTimeout = defaultDialTimeout
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = defaultRequestTimeout
	}
	c.Retry = c.Retry.withDefaults()
	return c
}

// errNoRedial marks a lost connection on a client built over a raw conn
// (NewClient): there is no address to re-dial, so the loss is permanent.
var errNoRedial = errors.New("fdw: connection lost and client cannot redial")

// errDeadlineExpired fails an attempt whose request deadline passed before
// it reached the wire.
var errDeadlineExpired = fmt.Errorf("fdw: request deadline expired: %w", context.DeadlineExceeded)

// Client talks to one remote FDW server and manufactures foreign tables
// that the local engine scans as if they were local (the postgres_fdw
// client role). It keeps a pool of sessions, one connection each: a round
// trip takes an idle session or dials a new one, and gives it back after
// the terminal frame, so concurrent round trips to one source run on
// separate connections. The pool grows to the number of round trips that
// overlap, which the admission limiter bounds. A client over a raw conn
// (NewClient) has exactly one session, and concurrent callers queue for it.
//
// The client is resilient by default: every round trip runs under a
// deadline, transient transport failures retry with capped exponential
// backoff on a freshly dialled session (the protocol is stateless per
// request, so re-dialling re-attaches transparently — foreign tables keep
// working across peer restarts), and a per-source circuit breaker fails
// fast with ErrSourceDown once the peer is known down. A session that saw
// a transport error is dropped, never pooled, so a broken connection never
// poisons the foreign tables attached through it.
type Client struct {
	name string
	cfg  Config
	// dial opens a fresh connection, bounded by timeout. Nil for clients
	// over a raw conn (net.Pipe): no re-dial is possible.
	dial    func(timeout time.Duration) (net.Conn, error)
	breaker *Breaker

	// The session pool. connMu is held only to take, return or drop a
	// session, never across network I/O, so Close and the health registry
	// never wait behind an in-flight round trip.
	connMu sync.Mutex
	idle   []*session            // ready for the next round trip
	live   map[*session]struct{} // every open session: idle and in flight
	freed  sync.Cond             // raw-conn callers wait here for the one session
	closed bool

	// counters behind Stats, Retries and the health registry (atomic:
	// read while requests are in flight)
	requests atomic.Int64
	rowsIn   atomic.Int64
	retries  atomic.Int64
}

// session is one connection with the buffers a round trip on it reuses:
// the frame buffer requests are encoded into and responses read into, and
// the row every batch decodes into — the sqldb.Relation contract forbids
// consumers to retain it, which is why ForeignTable is not a
// sqldb.StableRowScanner. One round trip at a time owns a session.
type session struct {
	conn  net.Conn
	br    *bufio.Reader
	frame []byte
	row   []sqlval.Value
}

// Dial connects to a server address with default resilience settings.
func Dial(addr string) (*Client, error) { return DialConfig(addr, Config{}) }

// DialConfig connects to a server address. The first connection is
// established eagerly (so a bad address fails at attach time) and pooled;
// later round trips dial more as they need them, under cfg.
func DialConfig(addr string, cfg Config) (*Client, error) {
	if cfg.Name == "" {
		cfg.Name = addr
	}
	c := newClient(cfg, func(timeout time.Duration) (net.Conn, error) {
		return net.DialTimeout("tcp", addr, timeout)
	})
	conn, err := c.dial(c.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	s, _ := c.addSession(conn) // a new client is open
	c.putSession(s)
	return c, nil
}

// NewClient wraps an established connection (e.g. one side of net.Pipe)
// with default resilience settings. Without an address there is no
// re-dial: a lost connection is permanent.
func NewClient(conn net.Conn) *Client { return NewClientConfig(conn, Config{}) }

// NewClientConfig wraps an established connection with explicit settings.
func NewClientConfig(conn net.Conn, cfg Config) *Client {
	if cfg.Name == "" {
		cfg.Name = "fdw"
	}
	c := newClient(cfg, nil)
	s, _ := c.addSession(conn) // a new client is open
	c.putSession(s)
	return c
}

func newClient(cfg Config, dial func(time.Duration) (net.Conn, error)) *Client {
	cfg = cfg.withDefaults()
	c := &Client{name: cfg.Name, cfg: cfg, dial: dial, breaker: NewBreaker(cfg.Breaker), live: map[*session]struct{}{}}
	c.freed.L = &c.connMu
	return c
}

// Name returns the source name used in errors and health reports.
func (c *Client) Name() string { return c.name }

// Breaker exposes the client's circuit breaker (health registry, tests).
func (c *Client) Breaker() *Breaker { return c.breaker }

// Conns reports how many connections are open, idle plus in flight.
func (c *Client) Conns() int {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	return len(c.live)
}

// Close closes every session, idle or in flight, and marks the client
// closed. An in-flight round trip fails promptly with ErrClientClosed —
// Close never waits for it — and a caller queued for a raw conn's session
// wakes to the same error.
func (c *Client) Close() error {
	c.connMu.Lock()
	c.closed = true
	conns := make([]net.Conn, 0, len(c.live))
	for s := range c.live {
		conns = append(conns, s.conn)
	}
	clear(c.live)
	c.idle = nil
	c.freed.Broadcast()
	c.connMu.Unlock()
	var errs []error
	for _, conn := range conns {
		errs = append(errs, conn.Close())
	}
	return errors.Join(errs...)
}

func (c *Client) isClosed() bool {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	return c.closed
}

// addSession registers a freshly opened connection as a live session, or
// closes it when Close ran while it was being dialled.
func (c *Client) addSession(conn net.Conn) (*session, error) {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if c.closed {
		conn.Close()
		return nil, ErrClientClosed
	}
	s := &session{conn: conn, br: bufio.NewReader(conn)}
	c.live[s] = struct{}{}
	return s, nil
}

// getSession takes an idle session or dials a new one, outside the lock.
// remain bounds the dial when a request deadline is pending. On a raw-conn
// client the caller waits while the one session is in flight.
func (c *Client) getSession(remain time.Duration) (*session, error) {
	c.connMu.Lock()
	for {
		if c.closed {
			c.connMu.Unlock()
			return nil, ErrClientClosed
		}
		if n := len(c.idle); n > 0 {
			s := c.idle[n-1]
			c.idle[n-1] = nil
			c.idle = c.idle[:n-1]
			c.connMu.Unlock()
			return s, nil
		}
		if c.dial != nil {
			break
		}
		if len(c.live) == 0 {
			c.connMu.Unlock()
			return nil, errNoRedial
		}
		c.freed.Wait()
	}
	c.connMu.Unlock()
	timeout := c.cfg.DialTimeout
	if remain > 0 && remain < timeout {
		timeout = remain
	}
	conn, err := c.dial(timeout)
	if err != nil {
		return nil, fmt.Errorf("fdw: dial: %w", err)
	}
	return c.addSession(conn)
}

// putSession returns a session whose stream sits at a protocol boundary
// to the idle pool. A rare oversized frame must not pin its buffer for the
// session's lifetime.
func (c *Client) putSession(s *session) {
	if cap(s.frame) > 4*maxBatchBytes {
		s.frame = nil
	}
	c.connMu.Lock()
	if _, ok := c.live[s]; !ok {
		// Close got here first and already closed the connection.
		c.connMu.Unlock()
		return
	}
	c.idle = append(c.idle, s)
	c.freed.Signal()
	c.connMu.Unlock()
}

// closeIdle closes every idle session and forgets it.
func (c *Client) closeIdle() {
	c.connMu.Lock()
	idle := c.idle
	c.idle = nil
	for _, s := range idle {
		delete(c.live, s)
	}
	c.connMu.Unlock()
	for _, s := range idle {
		s.conn.Close()
	}
}

// dropSession closes a session and forgets it.
func (c *Client) dropSession(s *session) {
	c.connMu.Lock()
	delete(c.live, s)
	c.freed.Broadcast() // a raw-conn waiter now sees errNoRedial
	c.connMu.Unlock()
	s.conn.Close()
}

// Stats reports how many requests were issued and rows received. Safe to
// call while requests are in flight.
func (c *Client) Stats() (requests, rows int) {
	return int(c.requests.Load()), int(c.rowsIn.Load())
}

// Retries reports how many transparent retry attempts the client has made.
func (c *Client) Retries() int { return int(c.retries.Load()) }

// roundTrip sends a request frame and consumes the answer, invoking onRow
// per row of each batch frame, until the terminal control frame, which it
// returns. It enforces the request deadline, consults the circuit breaker,
// and retries transient transport failures on a fresh session as long as
// no row has been delivered to onRow (the operations are idempotent reads,
// but a mid-stream retry would duplicate rows — those surface as
// ErrInterrupted instead). When the attempts or the source's
// RequestTimeout run out with no row delivered it returns a
// *SourceDownError, whatever the breaker's state; when the caller's
// context ends first (its deadline, or a cancel), an error wrapping the
// context's error.
// The response is nil when onRow stopped early and the drain after it
// failed.
func (c *Client) roundTrip(ctx context.Context, req *request, onRow func([]sqlval.Value) bool) (*response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c.requests.Add(1)

	var deadline time.Time
	if c.cfg.RequestTimeout > 0 {
		deadline = time.Now().Add(c.cfg.RequestTimeout)
	}
	// callerFirst marks a deadline set by the caller's context rather
	// than by the source's own RequestTimeout.
	cd, callerFirst := ctx.Deadline()
	if callerFirst = callerFirst && (deadline.IsZero() || cd.Before(deadline)); callerFirst {
		deadline = cd
	}

	for attempt := 1; ; attempt++ {
		if err := c.breaker.Allow(); err != nil {
			var sd *SourceDownError
			if errors.As(err, &sd) {
				sd.Source = c.name
			}
			return nil, err
		}
		resp, delivered, err := c.attempt(ctx, deadline, req, onRow)
		if err == nil {
			c.breaker.Success()
			return resp, nil
		}
		var re *remoteError
		if errors.As(err, &re) {
			// The peer answered in-protocol: it is alive and the stream
			// is in sync. Application errors never retry.
			c.breaker.Success()
			return nil, err
		}
		if errors.Is(err, ErrClientClosed) {
			c.breaker.Failure(err) // releases a pending half-open probe
			return nil, err
		}
		c.breaker.Failure(err)
		if delivered > 0 {
			return nil, fmt.Errorf("%w (source %q, %d row(s) delivered): %v", ErrInterrupted, c.name, delivered, err)
		}
		if !isTransient(err) {
			return nil, err
		}
		// The caller's deadline or cancellation ends the request as the
		// caller's error; the source's own RequestTimeout, or the last
		// attempt, failing in transport with no row delivered means the
		// source is down whatever the breaker's count says, so a
		// partial-results scan skips it as it would behind an open
		// circuit.
		expired := !deadline.IsZero() && !time.Now().Before(deadline)
		if cerr := ctx.Err(); cerr != nil || expired && callerFirst {
			return nil, fmt.Errorf("fdw: source %q: %w after %d attempt(s) (last transport error: %v)", c.name, cmp.Or(cerr, context.DeadlineExceeded), attempt, err)
		}
		if expired || attempt >= c.cfg.Retry.MaxAttempts {
			state, _ := c.breaker.State()
			return nil, &SourceDownError{Source: c.name, State: state, Reason: fmt.Errorf("%d attempt(s) failed: %w", attempt, err)}
		}
		// Back off, bounded by the request deadline and the context.
		d := c.cfg.Retry.delay(attempt)
		if !deadline.IsZero() {
			d = min(d, time.Until(deadline))
		}
		t := time.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, fmt.Errorf("fdw: source %q: %w (last transport error: %v)", c.name, ctx.Err(), err)
		case <-t.C:
		}
		c.retries.Add(1)
	}
}

// attempt runs one try of a round trip on an idle or a freshly dialled
// session and reports how many rows reached onRow. The session goes back
// to the pool only at a protocol boundary; on any transport error it is
// dropped (its stream may be desynchronised) so the next attempt starts
// clean.
func (c *Client) attempt(ctx context.Context, deadline time.Time, req *request, onRow func([]sqlval.Value) bool) (resp *response, delivered int, err error) {
	var remain time.Duration
	if !deadline.IsZero() {
		if remain = time.Until(deadline); remain <= 0 {
			return nil, 0, errDeadlineExpired
		}
	}
	s, err := c.getSession(remain)
	if err != nil {
		return nil, 0, err
	}
	if !deadline.IsZero() {
		if !time.Now().Before(deadline) {
			// The deadline passed while this caller queued for a raw
			// conn's session; arming it would only break the session.
			c.putSession(s)
			return nil, 0, errDeadlineExpired
		}
		_ = s.conn.SetDeadline(deadline)
	}
	// Context cancellation fires the connection deadline immediately, so a
	// blocked read/write aborts promptly even without a timeout.
	conn := s.conn
	stopWatch := context.AfterFunc(ctx, func() {
		_ = conn.SetDeadline(time.Unix(1, 0))
	})
	keep := false // set once the stream is at a protocol boundary
	defer func() {
		// A watch that fired left the connection's deadline in the past:
		// such a session is dropped even when the round trip succeeded.
		if stopWatch() && keep {
			c.putSession(s)
		} else {
			c.dropSession(s)
		}
	}()

	if s.frame, err = marshalControl(s.frame[:0], req); err != nil {
		keep = true
		return nil, 0, err
	}
	if _, err := conn.Write(s.frame); err != nil {
		return nil, 0, c.transportFailed(err)
	}
	stopped := false
	for {
		kind, body, err := readFrame(s.br, s.frame)
		s.frame = body
		if err != nil {
			switch {
			case stopped:
				// The consumer already stopped; it received everything it
				// asked for. The torn drain only costs the connection.
				return nil, delivered, nil
			case errors.Is(err, ErrProtocol):
				return nil, delivered, err
			}
			return nil, delivered, c.transportFailed(err)
		}
		if kind == frameBatch {
			if onRow == nil || stopped {
				continue // drain to the terminal frame
			}
			n, stop, err := c.deliver(s, body, onRow)
			delivered += n
			if err != nil {
				return nil, delivered, err
			}
			stopped = stop
			continue
		}
		var term response
		if err := json.Unmarshal(body, &term); err != nil {
			if stopped {
				return nil, delivered, nil
			}
			return nil, delivered, fmt.Errorf("%w: bad control frame: %v", ErrProtocol, err)
		}
		// The terminal frame: the stream is at the protocol boundary.
		if !deadline.IsZero() {
			_ = conn.SetDeadline(time.Time{})
		}
		keep = true
		if term.Err != "" && !stopped {
			return nil, delivered, &remoteError{term.Err}
		}
		// A remote error after the consumer stopped is as free as a torn
		// drain: the consumer received everything it asked for.
		return &term, delivered, nil
	}
}

// deliver decodes one batch body — a uvarint width, then rows of that
// many values — into the session's reused row and hands each row to onRow,
// reporting how many rows it handed over and whether onRow asked to stop.
func (c *Client) deliver(s *session, body []byte, onRow func([]sqlval.Value) bool) (n int, stopped bool, err error) {
	width, k, err := uvarint(body)
	if err != nil {
		return 0, false, err
	}
	rest := body[k:]
	if width > maxWidth || (width == 0 && len(rest) > 0) {
		return 0, false, fmt.Errorf("%w: bad batch width %d", ErrProtocol, width)
	}
	if cap(s.row) < int(width) {
		s.row = make([]sqlval.Value, width)
	}
	row := s.row[:width]
	for len(rest) > 0 {
		for i := range row {
			if row[i], rest, err = decodeValue(rest); err != nil {
				return n, false, err
			}
		}
		n++
		c.rowsIn.Add(1)
		if !onRow(row) {
			return n, true, nil
		}
	}
	return n, false, nil
}

// transportFailed maps low-level failures: errors caused by Close surface
// as ErrClientClosed instead of a garbage "closed pipe" read. A transport
// failure makes every idle session suspect as well — a peer that restarted
// has closed them all — so it closes them, and the retry dials afresh.
func (c *Client) transportFailed(err error) error {
	c.closeIdle()
	if c.isClosed() {
		return fmt.Errorf("%w: %v", ErrClientClosed, err)
	}
	return fmt.Errorf("fdw: transport: %w", err)
}

// Ping performs a minimal round trip — the health registry's probe. It
// goes through the same breaker/retry path as queries, so a successful
// probe on a half-open circuit closes it.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.roundTrip(ctx, &request{Op: "ping"}, nil)
	return err
}

// Tables lists the relations the remote exposes.
func (c *Client) Tables() ([]string, error) { return c.TablesContext(context.Background()) }

// TablesContext lists the remote relations under a caller deadline.
func (c *Client) TablesContext(ctx context.Context) ([]string, error) {
	resp, err := c.roundTrip(ctx, &request{Op: "tables"}, nil)
	if err != nil {
		return nil, err
	}
	return resp.Tables, nil
}

// ForeignTable returns a Relation backed by the remote table. The optional
// localName renames it in the local catalog (empty keeps the remote name).
func (c *Client) ForeignTable(remoteName, localName string) (*ForeignTable, error) {
	resp, err := c.roundTrip(context.Background(), &request{Op: "schema", Table: remoteName}, nil)
	if err != nil {
		return nil, err
	}
	schema, err := decodeSchema(resp.Columns)
	if err != nil {
		return nil, err
	}
	name := localName
	if name == "" {
		name = remoteName
	}
	return &ForeignTable{client: c, remote: remoteName, name: name, schema: schema}, nil
}

// Attach registers every remote table as a foreign table in the catalog,
// optionally prefixing names (e.g. "eu_"), and returns how many were
// attached. This mirrors `IMPORT FOREIGN SCHEMA` in postgres_fdw.
func (c *Client) Attach(db *sqldb.Database, prefix string) (int, error) {
	tables, err := c.Tables()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, t := range tables {
		ft, err := c.ForeignTable(t, prefix+t)
		if err != nil {
			return n, err
		}
		if err := db.RegisterForeign(ft); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// ForeignTable is a sqldb.Relation whose rows live on a remote server.
type ForeignTable struct {
	client *Client
	remote string
	name   string
	schema sqldb.Schema
}

// Name returns the local name of the foreign table.
func (f *ForeignTable) Name() string { return f.name }

// Source returns the name of the remote source serving this table.
func (f *ForeignTable) Source() string { return f.client.name }

// Schema returns the (remotely fetched) schema.
func (f *ForeignTable) Schema() sqldb.Schema { return f.schema }

// Scan streams every remote row.
func (f *ForeignTable) Scan(fn func([]sqlval.Value) bool) error {
	return f.ScanContext(context.Background(), fn)
}

// ScanContext streams every remote row under a caller deadline.
func (f *ForeignTable) ScanContext(ctx context.Context, fn func([]sqlval.Value) bool) error {
	_, err := f.client.roundTrip(ctx, &request{Op: "scan", Table: f.remote}, fn)
	return err
}

// ScanEq pushes the equality predicate down to the remote server, so only
// matching rows cross the wire.
func (f *ForeignTable) ScanEq(col string, v sqlval.Value, fn func([]sqlval.Value) bool) error {
	return f.ScanEqContext(context.Background(), col, v, fn)
}

// ScanEqContext is ScanEq under a caller deadline.
func (f *ForeignTable) ScanEqContext(ctx context.Context, col string, v sqlval.Value, fn func([]sqlval.Value) bool) error {
	_, err := f.client.roundTrip(ctx, &request{Op: "scan", Table: f.remote, EqCol: col, EqVal: appendValue(nil, v)}, fn)
	return err
}

// ScanWhere streams the remote rows where eqCol = eqVal (every row when
// eqCol is empty) and lets the server drop the rows a comparison in where
// rejects. A server that predates the where list ignores it and sends
// those rows as well; the executor keeps every pushed comparison as its
// own filter, so the answer is exact either way.
func (f *ForeignTable) ScanWhere(ctx context.Context, eqCol string, eqVal sqlval.Value, where []sqldb.Comparison, fn func([]sqlval.Value) bool) error {
	req := &request{Op: "scan", Table: f.remote, Where: make([]wireCond, len(where))}
	if eqCol != "" {
		req.EqCol, req.EqVal = eqCol, appendValue(nil, eqVal)
	}
	for i, c := range where {
		req.Where[i] = wireCond{Col: c.Col, Op: c.Op, Val: appendValue(nil, c.Val)}
	}
	_, err := f.client.roundTrip(ctx, req, fn)
	return err
}

var (
	_ sqldb.Relation                = (*ForeignTable)(nil)
	_ sqldb.PrefilterRelation       = (*ForeignTable)(nil)
	_ sqldb.FilteredRelation        = (*ForeignTable)(nil)
	_ sqldb.ContextRelation         = (*ForeignTable)(nil)
	_ sqldb.ContextFilteredRelation = (*ForeignTable)(nil)
)
