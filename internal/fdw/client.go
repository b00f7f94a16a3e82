package fdw

import (
	"bufio"
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

// Client talks to one remote FDW server and manufactures foreign tables
// that the local engine scans as if they were local (the postgres_fdw
// client role). A Client serialises requests: one in flight at a time.
//
// The client is resilient by default: every round trip runs under a
// deadline, transient transport failures retry with capped exponential
// backoff on a fresh connection (the protocol is stateless per request,
// so re-dialling re-attaches the session transparently — foreign tables
// keep working across peer restarts), and a per-source circuit breaker
// fails fast with ErrSourceDown once the peer is known down. A dropped
// connection therefore never permanently poisons the foreign tables
// attached through it.
type Client struct {
	name string
	cfg  Config
	// dial opens a fresh connection, bounded by timeout. Nil for clients
	// over a raw conn (net.Pipe): no re-dial is possible.
	dial    func(timeout time.Duration) (net.Conn, error)
	breaker *Breaker

	mu sync.Mutex // serialises round trips

	// Connection lifecycle, guarded separately from mu so Close and the
	// health registry never wait behind an in-flight round trip.
	connMu sync.Mutex
	conn   net.Conn
	br     *bufio.Reader
	closed bool

	// stats for the experiment harness and the health registry (atomic:
	// read while requests are in flight)
	requests atomic.Int64
	rowsIn   atomic.Int64
	retries  atomic.Int64

	// terminal payloads of the most recent round trip (guarded by mu)
	lastTables []string
	lastSchema []wireCol

	// Reused by every round trip (guarded by mu): the frame buffer
	// requests are encoded into and responses read into, and the row
	// every batch decodes into — the sqldb.Relation contract forbids
	// consumers to retain it, which is why ForeignTable is not a
	// sqldb.StableRowScanner.
	frame []byte
	row   []sqlval.Value
}

// Dial connects to a server address with default resilience settings.
func Dial(addr string) (*Client, error) { return DialConfig(addr, Config{}) }

// DialConfig connects to a server address. The initial connection is
// established eagerly (so a bad address fails at attach time); later
// connection losses re-dial transparently under cfg.
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
	c.setConn(conn)
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
	c.setConn(conn)
	return c
}

// NewClientDialer builds a client around a connection factory — the
// network seam the fault-injection suite uses to hand out FaultConn-wrapped
// connections. The first connection is established lazily.
func NewClientDialer(cfg Config, dial func() (net.Conn, error)) *Client {
	if cfg.Name == "" {
		cfg.Name = "fdw"
	}
	return newClient(cfg, func(time.Duration) (net.Conn, error) { return dial() })
}

func newClient(cfg Config, dial func(time.Duration) (net.Conn, error)) *Client {
	cfg = cfg.withDefaults()
	return &Client{name: cfg.Name, cfg: cfg, dial: dial, breaker: NewBreaker(cfg.Breaker)}
}

// Name returns the source name used in errors and health reports.
func (c *Client) Name() string { return c.name }

// Breaker exposes the client's circuit breaker (health registry, tests).
func (c *Client) Breaker() *Breaker { return c.breaker }

// setConn installs a fresh connection and its buffered reader.
func (c *Client) setConn(conn net.Conn) {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	c.conn = conn
	c.br = bufio.NewReader(conn)
}

// Close closes the connection and marks the client closed. An in-flight
// round trip fails promptly with ErrClientClosed — Close never waits for
// it and never leaves the reader on a yanked connection.
func (c *Client) Close() error {
	c.connMu.Lock()
	c.closed = true
	conn := c.conn
	c.conn, c.br = nil, nil
	c.connMu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}

func (c *Client) isClosed() bool {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	return c.closed
}

// dropConn discards conn after a transport error (the stream may be
// desynchronised; the next attempt starts clean). Only the connection it
// was handed is dropped — a concurrent Close/re-dial is left alone.
func (c *Client) dropConn(conn net.Conn) {
	c.connMu.Lock()
	if c.conn == conn {
		c.conn, c.br = nil, nil
	}
	c.connMu.Unlock()
	conn.Close()
}

// ensureConn returns the live connection, re-dialling if the previous one
// was dropped. remain bounds the dial when a request deadline is pending.
func (c *Client) ensureConn(remain time.Duration) (net.Conn, *bufio.Reader, error) {
	c.connMu.Lock()
	if c.closed {
		c.connMu.Unlock()
		return nil, nil, ErrClientClosed
	}
	if c.conn != nil {
		conn, br := c.conn, c.br
		c.connMu.Unlock()
		return conn, br, nil
	}
	dial := c.dial
	c.connMu.Unlock()
	if dial == nil {
		return nil, nil, errNoRedial
	}
	timeout := c.cfg.DialTimeout
	if remain > 0 && remain < timeout {
		timeout = remain
	}
	conn, err := dial(timeout)
	if err != nil {
		return nil, nil, fmt.Errorf("fdw: dial: %w", err)
	}
	c.connMu.Lock()
	if c.closed {
		c.connMu.Unlock()
		conn.Close()
		return nil, nil, ErrClientClosed
	}
	c.conn = conn
	c.br = bufio.NewReader(conn)
	br := c.br
	c.connMu.Unlock()
	return conn, br, nil
}

// Stats reports how many requests were issued and rows received — used by
// experiment E7 to demonstrate pushdown savings. Safe to call while a
// request is in flight.
func (c *Client) Stats() (requests, rows int) {
	return int(c.requests.Load()), int(c.rowsIn.Load())
}

// Retries reports how many transparent retry attempts the client has made.
func (c *Client) Retries() int { return int(c.retries.Load()) }

// roundTrip sends a request frame and consumes the answer, invoking onRow
// per row of each batch frame, until the terminal control frame. It
// enforces the request deadline, consults the circuit breaker, and retries
// transient transport failures on a fresh connection as long as no row
// has been delivered to onRow (the operations are idempotent reads, but a
// mid-stream retry would duplicate rows — those surface as ErrInterrupted
// instead).
func (c *Client) roundTrip(ctx context.Context, req *request, onRow func([]sqlval.Value) bool) error {
	if ctx == nil {
		ctx = context.Background()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	defer func() {
		// A rare oversized frame must not pin its buffer for the client's
		// lifetime.
		if cap(c.frame) > 4*maxBatchBytes {
			c.frame = nil
		}
	}()
	c.requests.Add(1)

	var deadline time.Time
	if c.cfg.RequestTimeout > 0 {
		deadline = time.Now().Add(c.cfg.RequestTimeout)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}

	for attempt := 1; ; attempt++ {
		if err := c.breaker.Allow(); err != nil {
			var sd *SourceDownError
			if errors.As(err, &sd) {
				sd.Source = c.name
			}
			return err
		}
		delivered, err := c.attempt(ctx, deadline, req, onRow)
		if err == nil {
			c.breaker.Success()
			return nil
		}
		var re *remoteError
		if errors.As(err, &re) {
			// The peer answered in-protocol: it is alive and the stream
			// is in sync. Application errors never retry.
			c.breaker.Success()
			return err
		}
		if errors.Is(err, ErrClientClosed) {
			c.breaker.Failure(err) // releases a pending half-open probe
			return err
		}
		c.breaker.Failure(err)
		if delivered > 0 {
			return fmt.Errorf("%w (source %q, %d row(s) delivered): %v", ErrInterrupted, c.name, delivered, err)
		}
		if !isTransient(err) {
			return err
		}
		if attempt >= c.cfg.Retry.MaxAttempts {
			return fmt.Errorf("fdw: source %q: %d attempt(s) failed: %w", c.name, attempt, err)
		}
		// Back off, bounded by the request deadline and the context.
		d := c.cfg.Retry.delay(attempt)
		if !deadline.IsZero() {
			remain := time.Until(deadline)
			if remain <= 0 {
				return fmt.Errorf("fdw: source %q: deadline exhausted after %d attempt(s): %w", c.name, attempt, err)
			}
			if d > remain {
				d = remain
			}
		}
		t := time.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
			return fmt.Errorf("fdw: source %q: %w (last transport error: %v)", c.name, ctx.Err(), err)
		case <-t.C:
		}
		c.retries.Add(1)
	}
}

// attempt runs one try of a round trip on the current (or a fresh)
// connection. It reports how many rows reached onRow; on any transport
// error the connection is dropped so the next attempt starts clean.
func (c *Client) attempt(ctx context.Context, deadline time.Time, req *request, onRow func([]sqlval.Value) bool) (delivered int, err error) {
	var remain time.Duration
	if !deadline.IsZero() {
		remain = time.Until(deadline)
		if remain <= 0 {
			return 0, fmt.Errorf("fdw: request deadline expired: %w", context.DeadlineExceeded)
		}
	}
	conn, br, err := c.ensureConn(remain)
	if err != nil {
		return 0, err
	}
	if !deadline.IsZero() {
		_ = conn.SetDeadline(deadline)
	}
	// Context cancellation fires the connection deadline immediately, so a
	// blocked read/write aborts promptly even without a timeout.
	stopWatch := context.AfterFunc(ctx, func() {
		_ = conn.SetDeadline(time.Unix(1, 0))
	})
	defer stopWatch()

	if c.frame, err = marshalControl(c.frame[:0], req); err != nil {
		return 0, err
	}
	if _, err := conn.Write(c.frame); err != nil {
		c.dropConn(conn)
		return 0, c.transportErr(err)
	}
	stopped := false
	for {
		kind, body, err := readFrame(br, c.frame)
		c.frame = body
		if err != nil {
			c.dropConn(conn)
			switch {
			case stopped:
				// The consumer already stopped; it received everything it
				// asked for. The torn drain only costs the connection.
				return delivered, nil
			case errors.Is(err, ErrProtocol):
				return delivered, err
			}
			return delivered, c.transportErr(err)
		}
		if kind == frameBatch {
			if onRow == nil || stopped {
				continue // drain to the terminal frame
			}
			n, stop, err := c.deliver(body, onRow)
			delivered += n
			if err != nil {
				c.dropConn(conn)
				return delivered, err
			}
			stopped = stop
			continue
		}
		var resp response
		if err := json.Unmarshal(body, &resp); err != nil {
			c.dropConn(conn)
			if stopped {
				return delivered, nil
			}
			return delivered, fmt.Errorf("%w: bad control frame: %v", ErrProtocol, err)
		}
		// The terminal frame: the stream is at the protocol boundary.
		if !deadline.IsZero() {
			_ = conn.SetDeadline(time.Time{})
		}
		if resp.Err != "" && !stopped {
			return delivered, &remoteError{resp.Err}
		}
		// A remote error after the consumer stopped is as free as a torn
		// drain: the consumer received everything it asked for.
		c.lastTables = resp.Tables
		c.lastSchema = resp.Columns
		return delivered, nil
	}
}

// deliver decodes one batch body — a uvarint width, then rows of that
// many values — into the reused row and hands each row to onRow,
// reporting how many rows it handed over and whether onRow asked to stop.
func (c *Client) deliver(body []byte, onRow func([]sqlval.Value) bool) (n int, stopped bool, err error) {
	width, k, err := uvarint(body)
	if err != nil {
		return 0, false, err
	}
	rest := body[k:]
	if width > maxWidth || (width == 0 && len(rest) > 0) {
		return 0, false, fmt.Errorf("%w: bad batch width %d", ErrProtocol, width)
	}
	if cap(c.row) < int(width) {
		c.row = make([]sqlval.Value, width)
	}
	row := c.row[:width]
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

// transportErr maps low-level failures: errors caused by Close surface as
// ErrClientClosed instead of a garbage "closed pipe" read.
func (c *Client) transportErr(err error) error {
	if c.isClosed() {
		return fmt.Errorf("%w: %v", ErrClientClosed, err)
	}
	return fmt.Errorf("fdw: transport: %w", err)
}

// Ping performs a minimal round trip — the health registry's probe. It
// goes through the same breaker/retry path as queries, so a successful
// probe on a half-open circuit closes it.
func (c *Client) Ping(ctx context.Context) error {
	return c.roundTrip(ctx, &request{Op: "ping"}, nil)
}

// Tables lists the relations the remote exposes.
func (c *Client) Tables() ([]string, error) { return c.TablesContext(context.Background()) }

// TablesContext lists the remote relations under a caller deadline.
func (c *Client) TablesContext(ctx context.Context) ([]string, error) {
	if err := c.roundTrip(ctx, &request{Op: "tables"}, nil); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.lastTables...), nil
}

// ForeignTable returns a Relation backed by the remote table. The optional
// localName renames it in the local catalog (empty keeps the remote name).
func (c *Client) ForeignTable(remoteName, localName string) (*ForeignTable, error) {
	if err := c.roundTrip(context.Background(), &request{Op: "schema", Table: remoteName}, nil); err != nil {
		return nil, err
	}
	c.mu.Lock()
	cols := c.lastSchema
	c.mu.Unlock()
	schema, err := decodeSchema(cols)
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
	return f.client.roundTrip(ctx, &request{Op: "scan", Table: f.remote}, fn)
}

// ScanEq pushes the equality predicate down to the remote server, so only
// matching rows cross the wire.
func (f *ForeignTable) ScanEq(col string, v sqlval.Value, fn func([]sqlval.Value) bool) error {
	return f.ScanEqContext(context.Background(), col, v, fn)
}

// ScanEqContext is ScanEq under a caller deadline.
func (f *ForeignTable) ScanEqContext(ctx context.Context, col string, v sqlval.Value, fn func([]sqlval.Value) bool) error {
	return f.client.roundTrip(ctx, &request{Op: "scan", Table: f.remote, EqCol: col, EqVal: appendValue(nil, v)}, fn)
}

var (
	_ sqldb.Relation                = (*ForeignTable)(nil)
	_ sqldb.FilteredRelation        = (*ForeignTable)(nil)
	_ sqldb.ContextRelation         = (*ForeignTable)(nil)
	_ sqldb.ContextFilteredRelation = (*ForeignTable)(nil)
)
