// Package fdw implements the foreign-data-wrapper substrate: the role
// postgres_fdw plays in the paper's SmartGround deployment ("communication
// between data sources relies on the postgres_fdw extension", Sec. I-A).
// A Server exposes the tables of a sqldb.Database over a length-framed
// binary protocol; a Client registers them as foreign tables in another
// engine, with predicate pushdown so filters run remotely.
//
// # Wire protocol (v2)
//
// Every message, in both directions, is one frame:
//
//	[u32 big-endian body length][kind byte][body]
//
// A body longer than maxFrame (16 MiB) is a protocol error, never an
// allocation. A control frame's body is one JSON request or response
// (ping/tables/schema/scan; err or done). A batch frame's body is a
// uvarint row width followed by rows of tagged values: null; int as a
// zigzag varint; float as 8 big-endian IEEE-754 bytes; string as a uvarint
// length plus its bytes; false; true. A request is one control frame. A
// scan answers with batch frames and then one terminal control frame;
// every other request answers with the terminal control frame alone.
//
// The server grows a scan's batches geometrically — 1, 2, 4, … rows, and
// a batch also closes once its body reaches maxBatchBytes (32 KiB) — and
// flushes each batch as it closes, so the first row reaches the client
// after one row of remote work while long scans still travel in few
// frames. The last batch and the terminal frame are flushed together.
//
// # Pushdown
//
// A scan request may carry eq_col/eq_val, an equality the server answers
// with ScanEq, and where, a list of {col, op, val} comparisons (op one of
// = <> < <= > >=, val one value in the batch codec) the server applies as
// a pre-filter. It evaluates the list in order and drops a row at the
// first comparison whose column is NULL or whose sqlval.Compare succeeds
// with the comparison False; a Compare that errors keeps the row, so the
// client's executor, which evaluates every pushed comparison again,
// reports the error exactly as it would unpushed. An unknown column or
// operator fails the request. The list only narrows what travels, so
// peers of either age interoperate without a version bump: a server that
// predates it drops the unknown JSON field and sends every row, and the
// answer stays exact, only slower.
package fdw

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"crosse/internal/sqldb"
	"crosse/internal/sqlval"
)

// Frame kinds.
const (
	frameControl byte = 'c'
	frameBatch   byte = 'b'
)

const (
	frameHeader   = 5        // u32 body length + kind byte
	maxFrame      = 16 << 20 // largest body either side accepts
	maxBatchBytes = 32 << 10 // a batch closes once its body reaches this
	// maxWidth bounds a batch's row width, so a hostile width cannot size
	// the decode row; it is PostgreSQL's own column limit.
	maxWidth = 1600
)

// Value tags of the batch codec.
const (
	tagNull byte = iota
	tagInt
	tagFloat
	tagString
	tagFalse
	tagTrue
)

// ErrProtocol marks a peer that broke the frame protocol: an oversized or
// unknown frame, a malformed batch, or a peer speaking another wire
// version. Retrying cannot help, so protocol errors never retry.
var ErrProtocol = errors.New("fdw: protocol error")

// errV1Peer is the protocol error for a peer speaking the v1 JSON-lines
// wire: its '{' lands in the top byte of the length header, far above
// maxFrame, so the mismatch is caught on the first header read.
var errV1Peer = fmt.Errorf("%w: peer speaks the v1 JSON-lines wire, not frame protocol v2", ErrProtocol)

// request is one client→server message.
type request struct {
	Op    string     `json:"op"`              // "ping" | "tables" | "schema" | "scan"
	Table string     `json:"table,omitempty"` // for schema/scan
	EqCol string     `json:"eq_col,omitempty"`
	EqVal []byte     `json:"eq_val,omitempty"` // one value in the batch codec
	Where []wireCond `json:"where,omitempty"`  // scan pre-filter
}

// wireCond is one comparison of a scan's pre-filter: col op val.
type wireCond struct {
	Col string `json:"col"`
	Op  string `json:"op"`  // = <> < <= > >=
	Val []byte `json:"val"` // one value in the batch codec
}

// response is the terminal server→client message of every request.
type response struct {
	Err     string    `json:"err,omitempty"`
	Tables  []string  `json:"tables,omitempty"`
	Columns []wireCol `json:"columns,omitempty"`
}

// wireCol serialises a schema column.
type wireCol struct {
	Name    string `json:"name"`
	Type    string `json:"type"`
	NotNull bool   `json:"not_null,omitempty"`
}

// readFrame reads one frame from r into buf (grown as needed and returned
// as body, so callers keep reusing it). A clean EOF before the header
// surfaces as io.EOF; a frame torn anywhere later as io.ErrUnexpectedEOF.
func readFrame(r io.Reader, buf []byte) (kind byte, body []byte, err error) {
	if cap(buf) < frameHeader {
		buf = make([]byte, 0, 512)
	}
	hdr := buf[:frameHeader]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, buf[:0], err
	}
	n := binary.BigEndian.Uint32(hdr)
	kind = hdr[4]
	switch {
	case hdr[0] == '{':
		return 0, buf[:0], errV1Peer
	case n > maxFrame:
		return 0, buf[:0], fmt.Errorf("%w: frame of %d bytes exceeds the %d-byte limit", ErrProtocol, n, maxFrame)
	case kind != frameControl && kind != frameBatch:
		return 0, buf[:0], fmt.Errorf("%w: unknown frame kind %#x", ErrProtocol, kind)
	}
	body = buf[:0]
	for len(body) < int(n) {
		if len(body) == cap(body) {
			// Grow with the bytes that actually arrive, so a bare header
			// cannot make the reader allocate the length it claims.
			body = slices.Grow(body, min(int(n)-len(body), max(len(body), 64<<10)))
		}
		m, err := r.Read(body[len(body):min(cap(body), int(n))])
		body = body[:len(body)+m]
		if err != nil && len(body) < int(n) {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return 0, body[:0], err
		}
	}
	return kind, body, nil
}

// appendFrameHeader reserves a frame header on dst; finishFrame fills it
// in once the body that follows is complete.
func appendFrameHeader(dst []byte) []byte { return append(dst, 0, 0, 0, 0, 0) }

func finishFrame(frame []byte, kind byte) {
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-frameHeader))
	frame[4] = kind
}

// appendValue appends v's batch-codec encoding to dst.
func appendValue(dst []byte, v sqlval.Value) []byte {
	switch v.Type() {
	case sqlval.TypeInt:
		return binary.AppendVarint(append(dst, tagInt), v.Int())
	case sqlval.TypeFloat:
		return binary.BigEndian.AppendUint64(append(dst, tagFloat), math.Float64bits(v.Float()))
	case sqlval.TypeString:
		s := v.Str()
		return append(binary.AppendUvarint(append(dst, tagString), uint64(len(s))), s...)
	case sqlval.TypeBool:
		if v.Bool() {
			return append(dst, tagTrue)
		}
		return append(dst, tagFalse)
	}
	return append(dst, tagNull)
}

// uvarint decodes a canonical (shortest-form) uvarint from the front of
// b. Non-canonical forms are rejected so that every accepted batch
// re-encodes to the bytes it came from.
func uvarint(b []byte) (uint64, int, error) {
	x, n := binary.Uvarint(b)
	if n <= 0 || (n > 1 && b[n-1] == 0) {
		return 0, 0, fmt.Errorf("%w: bad varint", ErrProtocol)
	}
	return x, n, nil
}

// decodeValue decodes one value from the front of b and returns the rest.
func decodeValue(b []byte) (sqlval.Value, []byte, error) {
	if len(b) == 0 {
		return sqlval.Null, nil, fmt.Errorf("%w: truncated value", ErrProtocol)
	}
	tag, b := b[0], b[1:]
	switch tag {
	case tagNull:
		return sqlval.Null, b, nil
	case tagInt:
		u, n, err := uvarint(b)
		if err != nil {
			return sqlval.Null, nil, err
		}
		// Undo the zigzag mapping of binary.AppendVarint.
		return sqlval.NewInt(int64(u>>1) ^ -int64(u&1)), b[n:], nil
	case tagFloat:
		if len(b) < 8 {
			return sqlval.Null, nil, fmt.Errorf("%w: truncated float", ErrProtocol)
		}
		return sqlval.NewFloat(math.Float64frombits(binary.BigEndian.Uint64(b))), b[8:], nil
	case tagString:
		l, n, err := uvarint(b)
		if err != nil {
			return sqlval.Null, nil, err
		}
		if l > uint64(len(b)-n) {
			return sqlval.Null, nil, fmt.Errorf("%w: truncated string", ErrProtocol)
		}
		end := n + int(l)
		return sqlval.NewString(string(b[n:end])), b[end:], nil
	case tagFalse, tagTrue:
		return sqlval.NewBool(tag == tagTrue), b, nil
	default:
		return sqlval.Null, nil, fmt.Errorf("%w: unknown value tag %#x", ErrProtocol, tag)
	}
}

// decodeSingle decodes the pushed-down eq_val: exactly one value in the
// batch codec.
func decodeSingle(b []byte) (sqlval.Value, error) {
	v, rest, err := decodeValue(b)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%w: %d trailing byte(s) after value", ErrProtocol, len(rest))
	}
	return v, err
}

func encodeSchema(s sqldb.Schema) []wireCol {
	out := make([]wireCol, len(s))
	for i, c := range s {
		out[i] = wireCol{Name: c.Name, Type: c.Type.String(), NotNull: c.NotNull}
	}
	return out
}

func decodeSchema(cols []wireCol) (sqldb.Schema, error) {
	out := make(sqldb.Schema, len(cols))
	for i, c := range cols {
		t, err := sqlval.ParseType(c.Type)
		if err != nil {
			return nil, err
		}
		out[i] = sqldb.Column{Name: c.Name, Type: t, NotNull: c.NotNull}
	}
	return out, nil
}

// marshalControl encodes v as a complete control frame appended to dst.
func marshalControl(dst []byte, v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	start := len(dst)
	dst = append(appendFrameHeader(dst), body...)
	finishFrame(dst[start:], frameControl)
	return dst, nil
}
