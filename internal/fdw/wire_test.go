package fdw

// wire_test.go — the frame protocol itself: batching, the reused decode
// row, wire-version mismatches, and a fuzz target over the frame reader
// and batch decoder.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"crosse/internal/sqldb"
	"crosse/internal/sqlval"
)

// TestForeignTableNotStable: the client decodes every row into one reused
// slice, so consumers must deep-copy what they keep — which sqlexec only
// skips for sqldb.StableRowScanner sources.
func TestForeignTableNotStable(t *testing.T) {
	var rel sqldb.Relation = (*ForeignTable)(nil)
	if _, ok := rel.(sqldb.StableRowScanner); ok {
		t.Fatal("*ForeignTable must not implement sqldb.StableRowScanner: its rows are reused")
	}
}

// TestFirstRowBeforeScanEnds pins geometric batching: the first row is
// flushed after one row of remote work, not after a full batch.
func TestFirstRowBeforeScanEnds(t *testing.T) {
	slow := &slowRel{name: "slow", rows: 200, delay: time.Millisecond}
	remote := sqldb.NewDatabase()
	if err := remote.RegisterForeign(slow); err != nil {
		t.Fatal(err)
	}
	c := pipePair(t, remote)
	var producedAtFirst int64 = -1
	n := 0
	err := c.roundTrip(t.Context(), &request{Op: "scan", Table: "slow"}, func([]sqlval.Value) bool {
		if n == 0 {
			producedAtFirst = slow.produced.Load()
		}
		n++
		return true
	})
	if err != nil || n != 200 {
		t.Fatalf("scan = %d rows, %v", n, err)
	}
	if producedAtFirst >= 10 {
		t.Fatalf("first row reached the consumer after %d remote rows, want < 10", producedAtFirst)
	}
}

// fakeV1Server answers the first request with v1 JSON lines and then
// keeps the connection open, so a client that waits for more bytes hangs.
func fakeV1Server(conn net.Conn, hold <-chan struct{}) {
	defer conn.Close()
	if _, err := conn.Read(make([]byte, 512)); err != nil {
		return
	}
	if _, err := conn.Write([]byte(`{"row":[{"t":"i","v":1}]}` + "\n" + `{"done":true}` + "\n")); err != nil {
		return
	}
	<-hold
}

// TestPeerVersionMismatch: a peer speaking the v1 JSON-lines wire gets a
// typed error within the request deadline, in both directions, and the
// frame reader never sizes a buffer from the bogus length a JSON line
// spells.
func TestPeerVersionMismatch(t *testing.T) {
	const deadline = 500 * time.Millisecond

	t.Run("v2 client, v1 server", func(t *testing.T) {
		a, b := net.Pipe()
		hold := make(chan struct{})
		defer close(hold)
		go fakeV1Server(a, hold)
		c := NewClientConfig(b, Config{RequestTimeout: deadline, Retry: RetryPolicy{MaxAttempts: 3}})
		defer c.Close()
		start := time.Now()
		_, err := c.Tables()
		if !errors.Is(err, ErrProtocol) {
			t.Fatalf("error = %v, want ErrProtocol", err)
		}
		if !strings.Contains(err.Error(), "v1") {
			t.Errorf("error %q should name the v1 wire", err)
		}
		if elapsed := time.Since(start); elapsed >= deadline {
			t.Fatalf("took %v, want well within the %v deadline", elapsed, deadline)
		}
	})

	t.Run("v1 client, v2 server", func(t *testing.T) {
		srv := NewServer(newRemote(t, 3))
		a, b := net.Pipe()
		go srv.ServeConn(a)
		defer b.Close()
		_ = b.SetDeadline(time.Now().Add(deadline))
		if err := json.NewEncoder(b).Encode(map[string]string{"op": "tables"}); err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(b)
		var resp struct {
			Err  string `json:"err"`
			Done bool   `json:"done"`
		}
		if err := dec.Decode(&resp); err != nil {
			t.Fatalf("v1 client could not read the answer: %v", err)
		}
		if !resp.Done || !strings.Contains(resp.Err, "v1") {
			t.Fatalf("answer = %+v, want a done err line naming the v1 wire", resp)
		}
		// The server then drops the connection: EOF, not a deadline.
		if err := dec.Decode(&resp); !errors.Is(err, io.EOF) {
			t.Fatalf("after the answer: %v, want EOF", err)
		}
	})

	t.Run("no bogus allocation", func(t *testing.T) {
		for _, in := range [][]byte{
			[]byte(`{"op":"scan","table":"t"}` + "\n"),
			{0x00, 0xff, 0xff, 0xff, frameBatch}, // just under 16 MiB claimed, no body
			{0x7f, 0xff, 0xff, 0xff, frameBatch}, // 2 GiB claimed
		} {
			buf := make([]byte, 0, 512)
			_, body, err := readFrame(bytes.NewReader(in), buf)
			if err == nil {
				t.Fatalf("%q: want an error", in)
			}
			if !errors.Is(err, ErrProtocol) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%q: error %v is untyped", in, err)
			}
			if cap(body) != cap(buf) {
				t.Fatalf("%q: buffer grew to %d bytes for a frame that never arrived", in, cap(body))
			}
		}
	})
}

// encodeFrames runs rows through the server's frame writer and returns
// the bytes it puts on the wire, terminal frame included.
func encodeFrames(t testing.TB, rows [][]sqlval.Value) []byte {
	var out bytes.Buffer
	fw := &frameWriter{w: bufio.NewWriter(&out), target: 1}
	for _, row := range rows {
		if err := fw.row(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.done(response{}); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// FuzzFDWFrame feeds arbitrary bytes to the client's frame reader and
// batch decoder. Every input must end in a typed error or in batches
// whose rows re-encode to exactly the bytes they were decoded from; no
// input may panic or make the reader hold more than one frame limit.
func FuzzFDWFrame(f *testing.F) {
	wide := make([]sqlval.Value, 7)
	for i := range wide {
		wide[i] = sqlval.NewString(strings.Repeat("x", i*9))
	}
	for _, rows := range [][][]sqlval.Value{
		nil,
		{{sqlval.NewInt(1)}},
		{
			{sqlval.NewString("lf001"), sqlval.NewString("IT"), sqlval.NewFloat(1.5)},
			{sqlval.Null, sqlval.NewString("a\xffb"), sqlval.NewFloat(math.NaN())},
			{sqlval.NewString(""), sqlval.NewString("nul\x00"), sqlval.NewFloat(math.Inf(-1))},
			{sqlval.NewString("x"), sqlval.NewString("y"), sqlval.NewFloat(0)},
		},
		{{sqlval.NewInt(math.MinInt64), sqlval.NewBool(true)}, {sqlval.NewInt(math.MaxInt64), sqlval.NewBool(false)}},
		{wide, wide, wide},
	} {
		f.Add(encodeFrames(f, rows))
	}
	f.Add([]byte(`{"op":"tables"}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var buf []byte
		for {
			kind, body, err := readFrame(r, buf)
			if cap(body) > maxFrame {
				t.Fatalf("reader holds %d bytes, over the %d-byte frame limit", cap(body), maxFrame)
			}
			if err != nil {
				if !errors.Is(err, ErrProtocol) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("untyped error %v", err)
				}
				return
			}
			buf = body
			if kind == frameControl {
				var resp response
				_ = json.Unmarshal(body, &resp)
				continue
			}
			var re []byte
			_, _, err = (&Client{}).deliver(body, func(row []sqlval.Value) bool {
				if re == nil {
					re = binary.AppendUvarint(nil, uint64(len(row)))
				}
				for _, v := range row {
					re = appendValue(re, v)
				}
				return true
			})
			switch {
			case err != nil:
				if !errors.Is(err, ErrProtocol) {
					t.Fatalf("untyped error %v", err)
				}
			case re != nil && !bytes.Equal(re, body):
				t.Fatalf("batch re-encodes to %x, decoded from %x", re, body)
			}
		}
	})
}
