package sqlexec

// pushdown_test.go — comparison pushdown to pre-filtering sources
// (compile.go: tryPushCmp; run.go: scanRelation). A source-local conjunct
// `col op constant` over a sqldb.PrefilterRelation is sent with the scan,
// and stays a local filter as well.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"crosse/internal/sqldb"
	"crosse/internal/sqlparser"
	"crosse/internal/sqlval"
)

// ignoringRemote stands in for a foreign table whose server predates the
// where list: it records the comparisons each scan was sent and returns
// every row anyway.
type ignoringRemote struct {
	t *sqldb.Table

	mu   sync.Mutex
	sent []string
}

func (d *ignoringRemote) Name() string         { return "remote_landfill" }
func (d *ignoringRemote) Schema() sqldb.Schema { return d.t.Schema() }
func (d *ignoringRemote) Scan(fn func([]sqlval.Value) bool) error {
	return d.t.Scan(fn)
}
func (d *ignoringRemote) ScanEq(col string, v sqlval.Value, fn func([]sqlval.Value) bool) error {
	return d.t.ScanEq(col, v, fn)
}

func (d *ignoringRemote) ScanWhere(_ context.Context, eqCol string, eqVal sqlval.Value, where []sqldb.Comparison, fn func([]sqlval.Value) bool) error {
	var parts []string
	for _, c := range where {
		parts = append(parts, fmt.Sprintf("%s %s %s", c.Col, c.Op, c.Val.SQLLiteral()))
	}
	d.mu.Lock()
	d.sent = append(d.sent, strings.Join(parts, " AND "))
	d.mu.Unlock()
	if eqCol != "" {
		return d.t.ScanEq(eqCol, eqVal, fn)
	}
	return d.t.Scan(fn)
}

// take returns and clears the where lists sent since the last call.
func (d *ignoringRemote) take() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	sent := d.sent
	d.sent = nil
	return sent
}

// TestComparisonPushdown pins which conjuncts are sent to a pre-filtering
// source, and that a source ignoring them still gives the answer of the
// same query over the local table: every pushed conjunct stays a filter.
func TestComparisonPushdown(t *testing.T) {
	db := sampleDB(t)
	lt, _ := db.Table("landfill")
	remote := &ignoringRemote{t: lt}
	if err := db.RegisterForeign(remote); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		where string
		sent  string // the where list of the remote scan; "-" for a plain scan
	}{
		{`r.area >= 80`, "area >= 80"},
		{`80.0 < r.area`, "area > 80"},
		{`r.area <> 45.2 AND r.city <= 'Roma'`, "area <> 45.2 AND city <= 'Roma'"},
		{`r.city = 'Torino' AND r.area > 50`, "area > 50"}, // the equality is the seek
		{`r.area < 100 AND UPPER(r.city) = 'ROMA'`, "area < 100"},
		{`r.area + 1 > 50 AND r.area < 100`, "-"}, // only a leading run is sent
		{`r.area = r.area AND r.active = TRUE`, "-"},
		{`r.area > NULL`, "-"},
		{`r.city > 3`, "city > 3"}, // the error stays local
	}
	for _, tc := range cases {
		q := `SELECT r.name, r.area FROM remote_landfill r WHERE ` + tc.where
		got, gotErr := ExecOpts(db, q, Options{})
		sent := remote.take()
		want, wantErr := ExecOpts(db, strings.ReplaceAll(q, "remote_landfill", "landfill"), Options{})
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: error %v, want %v", tc.where, gotErr, wantErr)
		}
		if gotErr == nil && strings.Join(sortedCopy(renderRows(got.Rows)), "\n") != strings.Join(sortedCopy(renderRows(want.Rows)), "\n") {
			t.Fatalf("%s: %v, want %v", tc.where, renderRows(got.Rows), renderRows(want.Rows))
		}
		if tc.sent == "-" {
			if len(sent) != 0 {
				t.Fatalf("%s: sent %q, want a plain scan", tc.where, sent)
			}
		} else if len(sent) != 1 || sent[0] != tc.sent {
			t.Fatalf("%s: sent %q, want %q", tc.where, sent, tc.sent)
		}
	}

	// An ON conjunct over the inner source alone is sent with its scan.
	mustExec(t, db, `SELECT e.elem_name, r.city FROM elem_contained e JOIN remote_landfill r ON r.name = e.landfill_name AND r.area > 50`)
	if sent := remote.take(); len(sent) != 1 || sent[0] != "area > 50" {
		t.Fatalf("join: sent %q", sent)
	}
}

// TestComparisonPushdownBinds pins template plans: a slot of the column's
// type is sent with its bound value on Run and RunContext alike;
// a slot of another type is not sent.
func TestComparisonPushdownBinds(t *testing.T) {
	db := sampleDB(t)
	lt, _ := db.Table("landfill")
	remote := &ignoringRemote{t: lt}
	if err := db.RegisterForeign(remote); err != nil {
		t.Fatal(err)
	}
	compile := func(text string) *SelectPlan {
		t.Helper()
		sel, err := sqlparser.ParseSelectTemplate(text)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Compile(db, sel)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	typed := compile(`SELECT name FROM remote_landfill WHERE area >= ?1:float AND city <> ?2:str`)
	bound := typed.Bind([]sqlval.Value{sqlval.NewFloat(50), sqlval.NewString("Roma")})
	entries := map[string]func() (int, error){
		"Run": func() (int, error) {
			r, err := bound.Run()
			if err != nil {
				return 0, err
			}
			return len(r.Rows), nil
		},
		"RunContext": func() (int, error) {
			r, err := bound.RunContext(context.Background())
			if err != nil {
				return 0, err
			}
			return len(r.Rows), nil
		},
	}
	for name, run := range entries {
		n, err := run()
		if err != nil || n != 2 {
			t.Fatalf("%s: %d rows, %v; want 2 (a, b)", name, n, err)
		}
		if sent := remote.take(); len(sent) != 1 || sent[0] != "area >= 50 AND city <> 'Roma'" {
			t.Fatalf("%s: sent %q", name, sent)
		}
	}

	// An INTEGER slot against the DOUBLE column is not sent.
	mixed := compile(`SELECT name FROM remote_landfill WHERE area >= ?1:int`)
	if r, err := mixed.Bind([]sqlval.Value{sqlval.NewInt(50)}).Run(); err != nil || len(r.Rows) != 2 {
		t.Fatalf("mixed: %v, %v", r, err)
	}
	if sent := remote.take(); len(sent) != 0 {
		t.Fatalf("mixed: sent %q", sent)
	}
	// An unbound plan sends nothing, and its filter reports the slot.
	if _, err := typed.Run(); err == nil || !strings.Contains(err.Error(), "not bound") {
		t.Fatalf("unbound: %v", err)
	}
	if sent := remote.take(); len(sent) != 0 {
		t.Fatalf("unbound: sent %q", sent)
	}
}
