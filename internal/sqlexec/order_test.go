package sqlexec

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"crosse/internal/sqlval"
)

// windowOrder sorts ascending on slot 0 and descending on slot 1.
var windowOrder = []orderPlan{{at: 0}, {at: 1, desc: true}}

// windowRows decodes one row per byte: its low three bits pick a first
// key among a few values that tie or mix types (NULL, INTEGER 1 and
// DOUBLE 1.0, NaN, a string), the next bit a second key. Few distinct
// keys make most rows tie, so the arrival stamp decides their order.
func windowRows(data []byte) []sortedRow {
	first := []sqlval.Value{
		sqlval.Null, sqlval.NewInt(1), sqlval.NewFloat(1), sqlval.NewFloat(math.NaN()),
		sqlval.NewInt(2), sqlval.NewFloat(1.5), sqlval.NewString("a"), sqlval.NewInt(-1),
	}
	rows := make([]sortedRow, len(data))
	for i, b := range data {
		rows[i] = sortedRow{
			row: []sqlval.Value{first[b&7], sqlval.NewInt(int64(b >> 3 & 1))},
			seq: int64(i),
		}
	}
	return rows
}

// smallWindowSample lets bracketWindow bracket windows of inputs from 64
// rows on, so the fuzz inputs reach its sampled path.
func smallWindowSample(tb testing.TB) {
	old := windowSample
	windowSample = 16
	tb.Cleanup(func() { windowSample = old })
}

// checkWindow compares sortWindow, bracketWindow and a bounded rowSorter
// fed the rows one by one against a stable sort on the keys alone
// followed by window.
func checkWindow(t *testing.T, data []byte, offset, limit int) {
	t.Helper()
	rows := windowRows(data)
	want := slices.Clone(rows)
	slices.SortStableFunc(want, func(a, b sortedRow) int {
		return orderCmp(windowOrder, &sortedRow{row: a.row}, &sortedRow{row: b.row})
	})
	want = window(want, offset, limit)

	check := func(what string, got []sortedRow) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s(n=%d, offset=%d, limit=%d): %d rows, want %d", what, len(rows), offset, limit, len(got), len(want))
		}
		for i := range want {
			if got[i].seq != want[i].seq {
				t.Fatalf("%s(n=%d, offset=%d, limit=%d): row %d is #%d, want #%d", what, len(rows), offset, limit, i, got[i].seq, want[i].seq)
			}
		}
	}
	check("sortWindow", sortWindow(windowOrder, slices.Clone(rows), offset, limit))

	check("bracketWindow", bracketWindow(windowOrder, slices.Clone(rows), offset, limit))

	s := newRowSorter(windowOrder, 2, keep(limit, offset), len(rows)/3)
	for _, r := range rows {
		s.add(r.row, r.seq)
	}
	var got []sortedRow
	for _, r := range bracketWindow(s.order, s.rows, offset, limit) {
		got = append(got, sortedRow{seq: r.seq})
	}
	check("rowSorter", got)
}

// FuzzSortWindow: on any rows, OFFSET and LIMIT (negative: absent), the
// selection kernel, the sampled bracket and the bounded buffer return
// exactly the stable sort's window.
func FuzzSortWindow(f *testing.F) {
	seq := func(n int, at func(i int) byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = at(i)
		}
		return b
	}
	const n = 600
	for _, seed := range []struct {
		data          []byte
		offset, limit int16
	}{
		{seq(n, func(i int) byte { return byte(i * 8 / n) }), 100, 50},               // sorted
		{seq(n, func(i int) byte { return byte(7 - i*8/n) }), 10, 300},               // reversed
		{seq(n, func(i int) byte { return byte(min(i, n-1-i) * 16 / n) }), 200, 100}, // organ pipe
		{seq(n, func(int) byte { return 9 }), 250, 100},                              // all ties
		{seq(n, func(i int) byte { return byte(i * 31 % 251) }), 0, 10},              // scattered, small k
		{[]byte{3, 1, 4, 1, 5, 9, 2, 6}, 2, 3},                                       // n < 16
		{[]byte{3, 1, 4, 1, 5, 9, 2, 6}, 8, 5},                                       // offset ≥ n
		{[]byte{3, 1, 4, 1, 5, 9, 2, 6}, 1, 0},                                       // LIMIT 0
		{seq(n, func(i int) byte { return byte(i * 13 % 16) }), 550, -1},             // OFFSET only
		{seq(n, func(i int) byte { return byte(i * 7 % 16) }), -1, -1},               // full sort
	} {
		f.Add(seed.data, seed.offset, seed.limit)
	}
	smallWindowSample(f)
	f.Fuzz(func(t *testing.T, data []byte, offset, limit int16) {
		checkWindow(t, data, max(int(offset), -1), max(int(limit), -1))
	})
}

// The same property over a fixed pseudo-random corpus, with windows on
// both sides of the bounded buffer's 2k cut, so every test run covers far
// more than the seed inputs.
func TestSortWindowMatchesStableSort(t *testing.T) {
	smallWindowSample(t)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		data := make([]byte, rng.Intn(400))
		rng.Read(data)
		checkWindow(t, data, rng.Intn(len(data)+20)-10, rng.Intn(len(data)/2+5)-2)
	}
}

// TestSortWindowAdversarial runs the inputs that defeat a naive pivot —
// sorted, reversed, organ-pipe and all-tie orders — at a size where a
// quadratic selection would take minutes.
func TestSortWindowAdversarial(t *testing.T) {
	const n = 1 << 16
	for name, at := range map[string]func(i int) int64{
		"sorted":    func(i int) int64 { return int64(i) },
		"reversed":  func(i int) int64 { return int64(n - i) },
		"organpipe": func(i int) int64 { return int64(min(i, n-1-i)) },
		"ties":      func(int) int64 { return 0 },
	} {
		rows := make([]sortedRow, n)
		for i := range rows {
			rows[i] = sortedRow{row: []sqlval.Value{sqlval.NewInt(at(i))}, seq: int64(i)}
		}
		want := slices.Clone(rows)
		slices.SortStableFunc(want, func(a, b sortedRow) int { return sqlval.CompareForSort(a.row[0], b.row[0]) })
		order := []orderPlan{{at: 0}}
		got := sortWindow(order, rows, n/2, 100)
		if len(got) != 100 {
			t.Fatalf("%s: %d rows, want 100", name, len(got))
		}
		for i := range got {
			if got[i].seq != want[n/2+i].seq {
				t.Fatalf("%s: row %d is #%d, want #%d", name, i, got[i].seq, want[n/2+i].seq)
			}
		}
	}
}
