package fdw

import (
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"testing"

	"crosse/internal/engine"
	"crosse/internal/sqldb"
	"crosse/internal/sqlexec"
	"crosse/internal/sqlval"
)

// newRemote builds a "remote" database with a registry table.
func newRemote(t *testing.T, rows int) *sqldb.Database {
	t.Helper()
	db := sqldb.NewDatabase()
	if _, err := sqlexec.Exec(db, `CREATE TABLE eu_registry (landfill TEXT, country TEXT, tons DOUBLE)`); err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Table("eu_registry")
	countries := []string{"IT", "FR", "DE", "ES"}
	for i := 0; i < rows; i++ {
		err := tab.Insert([]sqlval.Value{
			sqlval.NewString(fmt.Sprintf("lf%03d", i)),
			sqlval.NewString(countries[i%len(countries)]),
			sqlval.NewFloat(float64(i) * 1.5),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// pipePair wires a client to a server over an in-process connection.
func pipePair(t *testing.T, remote *sqldb.Database) *Client {
	t.Helper()
	srv := NewServer(remote)
	a, b := net.Pipe()
	go srv.ServeConn(a)
	c := NewClient(b)
	t.Cleanup(func() { c.Close() })
	return c
}

func TestTablesAndSchema(t *testing.T) {
	c := pipePair(t, newRemote(t, 4))
	tables, err := c.Tables()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0] != "eu_registry" {
		t.Errorf("tables = %v", tables)
	}
	ft, err := c.ForeignTable("eu_registry", "")
	if err != nil {
		t.Fatal(err)
	}
	if ft.Name() != "eu_registry" || len(ft.Schema()) != 3 {
		t.Errorf("schema = %v", ft.Schema())
	}
	if ft.Schema()[2].Type != sqlval.TypeFloat {
		t.Errorf("type roundtrip: %v", ft.Schema()[2].Type)
	}
}

func TestForeignScanMatchesLocal(t *testing.T) {
	remote := newRemote(t, 20)
	c := pipePair(t, remote)
	ft, err := c.ForeignTable("eu_registry", "remote_registry")
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	ft.Scan(func(row []sqlval.Value) bool {
		got = append(got, row[0].Str()+"|"+row[1].Str()+"|"+row[2].String())
		return true
	})
	local, _ := remote.Table("eu_registry")
	local.Scan(func(row []sqlval.Value) bool {
		want = append(want, row[0].Str()+"|"+row[1].Str()+"|"+row[2].String())
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("row %d: %q != %q", i, got[i], want[i])
		}
	}
}

func TestPushdownTransfersOnlyMatches(t *testing.T) {
	remote := newRemote(t, 100)
	c := pipePair(t, remote)
	ft, err := c.ForeignTable("eu_registry", "")
	if err != nil {
		t.Fatal(err)
	}
	_, rows0 := c.Stats()
	n := 0
	if err := ft.ScanEq("country", sqlval.NewString("IT"), func([]sqlval.Value) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	_, rows1 := c.Stats()
	if n != 25 {
		t.Errorf("matches = %d, want 25", n)
	}
	if transferred := rows1 - rows0; transferred != 25 {
		t.Errorf("pushdown transferred %d rows, want 25", transferred)
	}
}

func TestEarlyStopStillUsableAfter(t *testing.T) {
	remote := newRemote(t, 50)
	c := pipePair(t, remote)
	ft, _ := c.ForeignTable("eu_registry", "")
	n := 0
	ft.Scan(func([]sqlval.Value) bool { n++; return n < 5 })
	if n != 5 {
		t.Errorf("early stop at %d", n)
	}
	// Connection must still be usable: protocol drains to the Done marker.
	m := 0
	if err := ft.Scan(func([]sqlval.Value) bool { m++; return true }); err != nil {
		t.Fatal(err)
	}
	if m != 50 {
		t.Errorf("second scan rows = %d", m)
	}
}

func TestQueryThroughEngine(t *testing.T) {
	remote := newRemote(t, 40)
	c := pipePair(t, remote)
	local := engine.Open()
	if _, err := local.ExecScript(`
		CREATE TABLE my_landfills (name TEXT, eu_id TEXT);
		INSERT INTO my_landfills VALUES ('a', 'lf001'), ('b', 'lf002'), ('c', 'lf999')`); err != nil {
		t.Fatal(err)
	}
	ft, err := c.ForeignTable("eu_registry", "eu_registry")
	if err != nil {
		t.Fatal(err)
	}
	if err := local.RegisterForeign(ft); err != nil {
		t.Fatal(err)
	}
	// Join a local table against the remote registry.
	r, err := local.Query(`SELECT m.name, r.country
		FROM my_landfills m JOIN eu_registry r ON m.eu_id = r.landfill
		ORDER BY m.name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("join rows = %d, want 2", len(r.Rows))
	}
	if r.Rows[0][1].Str() != "FR" { // lf001 → index 1 → FR
		t.Errorf("country = %v", r.Rows[0][1])
	}
}

// An equality predicate on a foreign table ships to the remote node: the
// compiled executor pushes `col = const` into ForeignTable.ScanEq, and the
// result must match the pushdown-disabled plan (full fetch + local filter).
func TestCompiledPushdownToRemote(t *testing.T) {
	remote := newRemote(t, 40)
	c := pipePair(t, remote)
	local := engine.Open()
	ft, err := c.ForeignTable("eu_registry", "eu_registry")
	if err != nil {
		t.Fatal(err)
	}
	if err := local.RegisterForeign(ft); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT landfill, country FROM eu_registry WHERE landfill = 'lf003'`
	pushed, err := local.QueryOpts(q, sqlexec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fetched, err := local.QueryOpts(q, sqlexec.Options{DisableIndexSeek: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(pushed.Rows) != 1 || len(fetched.Rows) != 1 {
		t.Fatalf("rows: pushed=%d fetched=%d, want 1", len(pushed.Rows), len(fetched.Rows))
	}
	if pushed.Rows[0][1].Str() != fetched.Rows[0][1].Str() {
		t.Errorf("pushdown changed the result: %v vs %v", pushed.Rows[0], fetched.Rows[0])
	}
}

func TestAttachImportsAllTables(t *testing.T) {
	remote := newRemote(t, 5)
	if _, err := sqlexec.Exec(remote, `CREATE TABLE other (x INT)`); err != nil {
		t.Fatal(err)
	}
	c := pipePair(t, remote)
	local := engine.Open()
	n, err := c.Attach(local.Catalog(), "rm_")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("attached %d", n)
	}
	if _, err := local.Query(`SELECT COUNT(*) FROM rm_eu_registry`); err != nil {
		t.Error(err)
	}
	if _, err := local.Query(`SELECT COUNT(*) FROM rm_other`); err != nil {
		t.Error(err)
	}
}

func TestRemoteErrors(t *testing.T) {
	c := pipePair(t, newRemote(t, 1))
	if _, err := c.ForeignTable("nope", ""); err == nil || !strings.Contains(err.Error(), "remote") {
		t.Errorf("want remote error, got %v", err)
	}
	ft, _ := c.ForeignTable("eu_registry", "")
	err := ft.ScanEq("nocol", sqlval.NewInt(1), func([]sqlval.Value) bool { return true })
	if err == nil {
		t.Error("remote scan error must propagate")
	}
	// Client still usable after remote error.
	if _, err := c.Tables(); err != nil {
		t.Errorf("client wedged after error: %v", err)
	}
}

func TestTCPTransport(t *testing.T) {
	remote := newRemote(t, 10)
	srv := NewServer(remote)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ft, err := c.ForeignTable("eu_registry", "")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := ft.Scan(func([]sqlval.Value) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("rows = %d", n)
	}
	// Two clients concurrently.
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Tables(); err != nil {
		t.Error(err)
	}
}

// TestValueCodecRoundTrip: every value the engine can hold survives the
// batch codec bit for bit — non-finite floats, -0, the int64 extremes and
// strings that are not valid UTF-8 included.
func TestValueCodecRoundTrip(t *testing.T) {
	vals := []sqlval.Value{
		sqlval.Null,
		sqlval.NewInt(-42),
		sqlval.NewInt(0),
		sqlval.NewInt(math.MinInt64),
		sqlval.NewInt(math.MaxInt64),
		sqlval.NewFloat(3.25),
		sqlval.NewFloat(math.NaN()),
		sqlval.NewFloat(math.Inf(1)),
		sqlval.NewFloat(math.Inf(-1)),
		sqlval.NewFloat(math.Copysign(0, -1)),
		sqlval.NewString("it's \"quoted\"\nwith newline"),
		sqlval.NewString(""),
		sqlval.NewString("a\xffb"),
		sqlval.NewString("nul\x00byte"),
		sqlval.NewBool(true),
		sqlval.NewBool(false),
	}
	for _, v := range vals {
		back, err := decodeSingle(appendValue(nil, v))
		if err != nil {
			t.Fatalf("decode %v: %v", v, err)
		}
		if !sameValue(v, back) {
			t.Errorf("round trip %v (%v) -> %v (%v)", v, v.Type(), back, back.Type())
		}
	}
	for _, bad := range [][]byte{
		{0x7f},              // unknown tag
		{tagFloat, 1, 2},    // truncated float
		{tagString, 5, 'a'}, // truncated string
		{tagInt, 0x80, 0},   // non-canonical varint
		{tagNull, tagNull},  // trailing bytes
		nil,
	} {
		if _, err := decodeSingle(bad); !errors.Is(err, ErrProtocol) {
			t.Errorf("decode %x = %v, want ErrProtocol", bad, err)
		}
	}
}

// sameValue is identity on the wire: same type, same payload bits (NaN
// equals itself, -0 differs from +0).
func sameValue(a, b sqlval.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Type() {
	case sqlval.TypeInt:
		return a.Int() == b.Int()
	case sqlval.TypeFloat:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case sqlval.TypeString:
		return a.Str() == b.Str()
	case sqlval.TypeBool:
		return a.Bool() == b.Bool()
	}
	return true
}
