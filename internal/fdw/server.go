package fdw

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"

	"crosse/internal/sqldb"
	"crosse/internal/sqlval"
)

// Server exposes the tables of a database to remote FDW clients. It is the
// "remote data source" side of the paper's federation: national registries
// and partner databanks run one of these.
type Server struct {
	db *sqldb.Database

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
}

// NewServer wraps a database for remote access.
func NewServer(db *sqldb.Database) *Server {
	return &Server{db: db, conns: map[net.Conn]struct{}{}}
}

// Listen starts accepting connections on addr ("127.0.0.1:0" picks a free
// port) and returns the bound address. Serving happens on background
// goroutines until Close.
func (s *Server) Listen(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.listener = lis
	s.mu.Unlock()
	go s.acceptLoop(lis)
	return lis.Addr().String(), nil
}

func (s *Server) acceptLoop(lis net.Listener) {
	for {
		conn, err := lis.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// ServeConn handles one already-established connection (used with net.Pipe
// for in-process federation in tests and examples). It blocks until the
// connection closes.
func (s *Server) ServeConn(conn net.Conn) {
	s.serveConn(conn)
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	fw := &frameWriter{w: bufio.NewWriter(conn)}
	var buf []byte
	for {
		kind, body, err := readFrame(br, buf)
		buf = body
		if err != nil {
			switch {
			case errors.Is(err, errV1Peer):
				// Answer in the peer's own dialect, so an old client
				// reports a remote error rather than a torn stream.
				line, _ := json.Marshal(map[string]any{"err": err.Error(), "done": true})
				_, _ = fw.w.Write(append(line, '\n'))
				_ = fw.w.Flush()
			case errors.Is(err, ErrProtocol):
				_ = fw.fail(err)
			}
			return
		}
		var req request
		if kind != frameControl {
			err = fmt.Errorf("%w: request in a batch frame", ErrProtocol)
		} else if err = json.Unmarshal(body, &req); err != nil {
			err = fmt.Errorf("fdw: bad request: %w", err)
		}
		if err != nil {
			// Protocol error: report it, then drop the conn.
			_ = fw.fail(err)
			return
		}
		if err := s.handle(fw, &req); err != nil {
			return // write error: connection is gone
		}
	}
}

func (s *Server) handle(fw *frameWriter, req *request) error {
	switch req.Op {
	case "ping":
		return fw.done(response{})
	case "tables":
		return fw.done(response{Tables: s.db.Names()})
	case "schema":
		rel, err := s.db.Resolve(req.Table)
		if err != nil {
			return fw.fail(err)
		}
		return fw.done(response{Columns: encodeSchema(rel.Schema())})
	case "scan":
		return s.handleScan(fw, req)
	default:
		return fw.fail(fmt.Errorf("fdw: unknown op %q", req.Op))
	}
}

func (s *Server) handleScan(fw *frameWriter, req *request) error {
	rel, err := s.db.Resolve(req.Table)
	if err != nil {
		return fw.fail(err)
	}
	filter, err := compileWhere(rel.Schema(), req.Where)
	if err != nil {
		return fw.fail(err)
	}
	var rowErr error
	emit := func(row []sqlval.Value) bool {
		if !filter.keep(row) {
			return true
		}
		rowErr = fw.row(row)
		return rowErr == nil
	}
	fw.target = 1
	var scanErr error
	if req.EqCol != "" {
		v, derr := decodeSingle(req.EqVal)
		if derr != nil {
			return fw.fail(fmt.Errorf("fdw: bad eq_val: %w", derr))
		}
		fr, ok := rel.(sqldb.FilteredRelation)
		if !ok {
			return fw.fail(errors.New("fdw: relation does not support filtered scans"))
		}
		scanErr = fr.ScanEq(req.EqCol, v, emit)
	} else {
		scanErr = rel.Scan(emit)
	}
	if rowErr != nil {
		// A row too wide for the wire is reported to the client; a dead
		// connection fails fw.fail as well, with the writer's sticky error.
		scanErr = rowErr
	}
	if scanErr != nil {
		return fw.fail(scanErr)
	}
	return fw.done(response{})
}

// cmpOps maps each comparison operator a where list may use to the
// Compare results it holds for.
var cmpOps = map[string]func(c int) bool{
	"=":  func(c int) bool { return c == 0 },
	"<>": func(c int) bool { return c != 0 },
	"<":  func(c int) bool { return c < 0 },
	"<=": func(c int) bool { return c <= 0 },
	">":  func(c int) bool { return c > 0 },
	">=": func(c int) bool { return c >= 0 },
}

// preFilter is a scan's where list resolved against the relation's
// schema.
type preFilter []struct {
	col   int
	holds func(c int) bool
	val   sqlval.Value
}

// compileWhere resolves a where list. An unknown column or operator, or a
// value that does not decode, fails the request.
func compileWhere(schema sqldb.Schema, where []wireCond) (preFilter, error) {
	f := make(preFilter, len(where))
	for i, w := range where {
		if f[i].col = schema.ColIndex(w.Col); f[i].col < 0 {
			return nil, fmt.Errorf("fdw: bad where: unknown column %q", w.Col)
		}
		var ok bool
		if f[i].holds, ok = cmpOps[w.Op]; !ok {
			return nil, fmt.Errorf("fdw: bad where: unknown operator %q", w.Op)
		}
		var err error
		if f[i].val, err = decodeSingle(w.Val); err != nil {
			return nil, fmt.Errorf("fdw: bad where value: %w", err)
		}
	}
	return f, nil
}

// keep reports whether a row may pass the conditions. It evaluates them in
// order, as the client evaluates its filters, and drops the row at the
// first condition whose column is NULL or whose Compare succeeds with the
// comparison False: there the client's filters reject the row too, without
// an error. A Compare that errors keeps the row, so the client reports the
// error exactly as it would without the pre-filter.
func (f preFilter) keep(row []sqlval.Value) bool {
	for i := range f {
		v := row[f[i].col]
		if v.IsNull() {
			return false
		}
		c, err := sqlval.Compare(v, f[i].val)
		if err != nil {
			return true
		}
		if !f[i].holds(c) {
			return false
		}
	}
	return true
}

// frameWriter writes one connection's frames through a buffered writer.
// A scan appends rows into batch — a reusable frame: header room, width,
// rows — that closes after target rows (doubling per batch from 1) or at
// maxBatchBytes, and is flushed as it closes. The terminal control frame
// carries any still-open batch with it.
type frameWriter struct {
	w      *bufio.Writer
	batch  []byte
	rows   int // rows in the open batch; 0 = no batch open
	target int
}

// row appends one row to the open batch, opening one if needed, and
// flushes the batch once it is full. All rows of a scan share the
// relation's width, which the batch states once.
func (fw *frameWriter) row(row []sqlval.Value) error {
	if fw.rows == 0 {
		if len(row) > maxWidth {
			return fmt.Errorf("fdw: row of %d columns exceeds the %d-column wire limit", len(row), maxWidth)
		}
		fw.batch = binary.AppendUvarint(appendFrameHeader(fw.batch[:0]), uint64(len(row)))
	}
	for _, v := range row {
		fw.batch = appendValue(fw.batch, v)
	}
	fw.rows++
	if fw.rows < fw.target && len(fw.batch)-frameHeader < maxBatchBytes {
		return nil
	}
	fw.target = min(2*fw.target, maxBatchBytes)
	if err := fw.writeBatch(); err != nil {
		return err
	}
	return fw.w.Flush()
}

// writeBatch writes the open batch, if any, into the buffered writer.
func (fw *frameWriter) writeBatch() error {
	if fw.rows == 0 {
		return nil
	}
	fw.rows = 0
	finishFrame(fw.batch, frameBatch)
	_, err := fw.w.Write(fw.batch)
	return err
}

// done ends a request: the open batch, then resp, flushed together.
func (fw *frameWriter) done(resp response) error {
	if err := fw.writeBatch(); err != nil {
		return err
	}
	frame, err := marshalControl(fw.batch[:0], resp)
	if err != nil {
		return err
	}
	fw.batch = frame
	if _, err := fw.w.Write(frame); err != nil {
		return err
	}
	return fw.w.Flush()
}

// fail ends a request with an err control frame.
func (fw *frameWriter) fail(err error) error { return fw.done(response{Err: err.Error()}) }

// Close stops the listener and drops open connections.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.listener != nil {
		s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
}
