package sqlexec

// order.go — ORDER BY / LIMIT / OFFSET by selection. Every ORDER BY site
// (the plain sink, the grouped sink's tail, Tail.Apply) buffers its rows
// as sortedRows and hands them to bracketWindow, which brackets the
// OFFSET / LIMIT window with a sample and keeps only the rows inside the
// bracket, and sortWindow, which selects the window from those and sorts
// only the window. A bounded ORDER BY (one with a LIMIT) keeps its buffer at most
// 2k rows for k = limit + offset by cutting it back to the k best with
// the same selection. Each sorter draws its buffers from, and leaves
// what the Result does not hold to, one pool (putSortScratch).

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sync"

	"crosse/internal/sqlval"
)

// sortedRow is one buffered output row — its projected columns, then the
// plan's hidden ORDER BY key slots (see orderPlan.at) — and its arrival
// stamp, the tiebreak that makes the order stable: the row's position in
// the order it reached the sorter.
type sortedRow struct {
	row []sqlval.Value
	seq int64
}

// orderCmp orders a against b in the final output: key by key under
// CompareForSort (NULLs first, reversed for DESC), then by arrival stamp.
// Every ORDER BY compares through here, and (keys, stamp) is a strict
// total order, so any correct selection or sort reproduces the stable
// sort, ties included.
func orderCmp(order []orderPlan, a, b *sortedRow) int {
	for k := range order {
		op := &order[k]
		c := sqlval.CompareForSort(a.row[op.at], b.row[op.at])
		if c != 0 {
			if op.desc {
				return -c
			}
			return c
		}
	}
	return cmp.Compare(a.seq, b.seq)
}

// keep returns how many rows an ORDER BY with this LIMIT and OFFSET must
// retain — limit + offset — or -1 when it must retain them all (no LIMIT,
// or a window too large for 2·keep to fit an int).
func keep(limit, offset int) int {
	if limit < 0 || limit > math.MaxInt/4 || offset > math.MaxInt/4 {
		return -1
	}
	return limit + max(offset, 0)
}

// maxPresize caps a sorter's presized buffer: the hint is a driving-scan
// cardinality, which a selective filter can leave far above what reaches
// the sink.
const maxPresize = 1 << 17

// rowSorter buffers output rows for ORDER BY, one arena copy per row.
// Unbounded (k < 0), it keeps every row. Bounded, it keeps the k best:
// rows append until the buffer holds 2k, then a selection cuts it back to
// the k best and remembers the worst of them as the bound a new row must
// beat to be copied at all. Each cut is O(k) and follows at least k
// appends, so the work is amortised O(1) per row for any k. A cut leaves
// the dropped rows' arena slices past the buffer's length, where the next
// appends reuse them.
type rowSorter struct {
	order []orderPlan
	rows  []sortedRow
	arena *sqlval.RowArena
	k     int       // rows a bounded ORDER BY keeps; -1 = unbounded
	bound sortedRow // the worst kept row since the last cut; row nil before
}

// newRowSorter returns a sorter for rows of the given width keeping k rows
// (-1: all), its buffer presized for the hint rows the caller expects.
func newRowSorter(order []orderPlan, width, k, hint int) *rowSorter {
	n := min(hint, maxPresize)
	if k >= 0 {
		n = min(n, 2*k)
	}
	rows, arena := takeSortScratch(width, max(n, 0))
	return &rowSorter{order: order, rows: rows, arena: arena, k: k}
}

// sortScratch is the buffers a sorter leaves behind: its []sortedRow
// buffer, cleared, and those of its arena blocks no Result row lives in,
// zeroed — all of them when the window was copied out, only the pooled
// blocks it never carved when the rows were handed over. Nothing else
// references them, so the next sorter takes them instead of allocating;
// sortScratchPool holds them only until the next garbage collection.
type sortScratch struct {
	rows   []sortedRow
	blocks [][]sqlval.Value
}

var sortScratchPool sync.Pool

// takeSortScratch returns an empty sortedRow buffer of capacity at least
// n and an arena of the given width, both drawn from sortScratchPool
// when it holds scratch.
func takeSortScratch(width, n int) ([]sortedRow, *sqlval.RowArena) {
	sc, _ := sortScratchPool.Get().(*sortScratch)
	if sc == nil {
		return make([]sortedRow, 0, n), sqlval.NewRowArena(width)
	}
	rows := sc.rows[:0]
	if cap(rows) < n {
		rows = make([]sortedRow, 0, n)
	}
	return rows, sqlval.NewRowArenaFrom(width, sc.blocks)
}

// putSortScratch clears rows over its whole capacity and pools it with
// arena's blocks: every block when copied says the caller holds no row of
// arena, else only the blocks arena never carved.
func putSortScratch(rows []sortedRow, arena *sqlval.RowArena, copied bool) {
	clear(rows[:cap(rows)])
	blocks := arena.Spare()
	if copied {
		blocks = arena.Release()
	}
	sortScratchPool.Put(&sortScratch{rows: rows[:0], blocks: blocks})
}

// add buffers a copy of row, which holds the projected columns and the
// evaluated hidden keys, at arrival stamp seq.
func (s *rowSorter) add(row []sqlval.Value, seq int64) {
	if s.k == 0 {
		return
	}
	if s.bound.row != nil && orderCmp(s.order, &sortedRow{row: row, seq: seq}, &s.bound) > 0 {
		return // loses to the worst kept row: drop without copying
	}
	n := len(s.rows)
	if n < cap(s.rows) {
		s.rows = s.rows[:n+1]
	} else {
		s.rows = append(s.rows, sortedRow{})
	}
	dst := &s.rows[n]
	if dst.row == nil {
		dst.row = s.arena.Next()
	}
	copy(dst.row, row)
	dst.seq = seq
	if s.k > 0 && len(s.rows) == 2*s.k {
		selectNth(s.order, s.rows, s.k-1)
		s.bound = s.rows[s.k-1]
		s.rows = s.rows[:s.k]
	}
}

// windowSample is how many rows bracketWindow samples to bracket a window;
// inputs below 4·windowSample rows skip the sampling. A variable so tests
// can take the sampled path on small inputs.
var windowSample = 1024

// bracketWindow returns the OFFSET / LIMIT window (negative: clause absent)
// of rows in sorted order. A window that is a small share of a large
// input is bracketed first: a strided sample of the rows, sorted, gives
// two pivots whose sample ranks lie a margin of 2·√sample below the
// window's start and above its end. One pass counts the rows below the
// lower pivot and keeps those up to the upper one, and when the bracket
// holds the whole window, sortWindow runs on the kept rows alone. A
// sample that misses (rare; the margin is four standard deviations of a
// sample rank) falls back to sortWindow over every row. Either way the
// result is exact.
func bracketWindow(order []orderPlan, rows []sortedRow, offset, limit int) []sortedRow {
	total := len(rows)
	offset = max(offset, 0)
	end := total
	if limit >= 0 && limit < total-offset {
		end = offset + limit
	}
	ns := windowSample
	if offset >= end || total < 4*ns || end-offset > total/2 {
		return sortWindow(order, rows, offset, limit)
	}

	sample := make([]sortedRow, ns)
	for i := range sample {
		sample[i] = rows[i*total/ns]
	}
	slices.SortFunc(sample, func(a, b sortedRow) int { return orderCmp(order, &a, &b) })
	margin := 2 * int(math.Sqrt(float64(ns)))
	loAt, hiAt := offset*ns/total-margin, (end*ns+total-1)/total+margin
	var lo, hi *sortedRow
	if loAt >= 0 {
		lo = &sample[loAt]
	}
	if hiAt < ns {
		hi = &sample[hiAt]
	}

	skipped := 0
	mid := make([]sortedRow, 0, total*(min(hiAt, ns)-max(loAt, 0))/ns)
	for _, sr := range rows {
		switch {
		case lo != nil && orderCmp(order, &sr, lo) < 0:
			skipped++
		case hi == nil || orderCmp(order, &sr, hi) <= 0:
			mid = append(mid, sr)
		}
	}
	if skipped > offset || skipped+len(mid) < end {
		return sortWindow(order, rows, offset, limit)
	}
	return sortWindow(order, mid, offset-skipped, end-offset)
}

// sortWindow reorders rows so that the OFFSET / LIMIT window of their
// sorted order (a negative offset or limit means the clause is absent)
// sits sorted at rows[offset:offset+limit], and returns that window. It
// selects the window's end, then its start inside that prefix, and sorts
// only the window: O(n + w log w) for a window of w rows.
func sortWindow(order []orderPlan, rows []sortedRow, offset, limit int) []sortedRow {
	offset = max(offset, 0)
	if offset >= len(rows) || limit == 0 {
		return nil
	}
	end := len(rows)
	if limit > 0 && limit < end-offset {
		end = offset + limit
		selectNth(order, rows, end)
	}
	if offset > 0 {
		selectNth(order, rows[:end], offset)
	}
	win := rows[offset:end]
	slices.SortFunc(win, func(a, b sortedRow) int { return orderCmp(order, &a, &b) })
	return win
}

// selectNth is introselect: it reorders rows so rows[n] is the row of rank
// n, every row before it ranks lower and every row after it higher.
// Quickselect partitions around a median-of-three pivot; past a depth of
// 2·log2(len) partitions (inputs that defeat the pivot, such as
// organ-pipe orders) it sorts the remaining range instead, which bounds
// the worst case at O(n log n). Requires 0 <= n < len(rows).
func selectNth(order []orderPlan, rows []sortedRow, n int) {
	lo, hi := 0, len(rows)
	for depth := 2 * bits.Len(uint(len(rows))); hi-lo > 16; depth-- {
		if depth == 0 {
			break
		}
		p := lo + partition(order, rows[lo:hi])
		switch {
		case n < p:
			hi = p
		case n > p:
			lo = p + 1
		default:
			return
		}
	}
	slices.SortFunc(rows[lo:hi], func(a, b sortedRow) int { return orderCmp(order, &a, &b) })
}

// partition moves the median of rows' first, middle and last rows to
// rows[0], splits the rest around it (Hoare's scheme) and returns the
// pivot's final index: rows before it rank lower, rows after it higher.
func partition(order []orderPlan, rows []sortedRow) int {
	less := func(i, j int) bool { return orderCmp(order, &rows[i], &rows[j]) < 0 }
	a, b, c := 0, len(rows)/2, len(rows)-1
	if less(b, a) {
		a, b = b, a
	}
	if less(c, b) {
		b = c
		if less(b, a) {
			b = a
		}
	}
	rows[0], rows[b] = rows[b], rows[0]
	i, j := 1, len(rows)-1
	for {
		for i <= j && less(i, 0) {
			i++
		}
		for i <= j && less(0, j) {
			j--
		}
		if i >= j {
			break
		}
		rows[i], rows[j] = rows[j], rows[i]
		i++
		j--
	}
	rows[0], rows[j] = rows[j], rows[0]
	return j
}

// window slices the OFFSET / LIMIT range out of fully ordered rows; a
// negative offset or limit means the clause is absent.
func window[T any](rows []T, offset, limit int) []T {
	if offset > 0 {
		rows = rows[min(offset, len(rows)):]
	}
	if limit >= 0 && limit < len(rows) {
		rows = rows[:limit]
	}
	return rows
}
