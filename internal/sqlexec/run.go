package sqlexec

// run.go — the executor for compiled SelectPlans: a push-based pipeline
// over ONE reused joined-row buffer that ends in the Result. Each source's
// own filters run on the row as scanned, so only a row that passes them is
// copied into the driving scan's slot segment or retained by a join's
// build side; each join step fills the right source's segment per
// candidate; the other conjuncts run at the step their slots first become
// bound. Every conjunct runs through its typed kernel when it has one
// (kernel.go). Only the sink (projection / DISTINCT / ORDER BY /
// grouping) allocates retained rows, via sqlval.RowArena, and it copies
// each output row once: rows a sorter holds become the Result's as they
// are. LIMIT without ORDER BY stops the driving scan early; ORDER BY +
// LIMIT keeps at most twice limit + offset rows, cut back by selection
// (order.go). Every plan runs on this one serial driver, which streams
// the driving scan through feed.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"crosse/internal/sqldb"
	"crosse/internal/sqlval"
)

// Run executes the plan and materialises the result.
func (p *SelectPlan) Run() (*Result, error) {
	return p.RunContext(nil)
}

// RunContext executes the plan bounded by ctx and materialises the result.
// Scans over context-aware relations (remote sources) honour the context's
// deadline and cancellation; local in-memory scans ignore it. Under
// Options.PartialResults the result's SkippedSources names any unavailable
// sources that were skipped. A nil ctx behaves like Run.
func (p *SelectPlan) RunContext(ctx context.Context) (*Result, error) {
	r := &runner{p: p, ctx: ctx}
	if err := r.run(); err != nil {
		return nil, err
	}
	return &Result{Columns: append([]string(nil), p.headers...), Rows: r.out, SkippedSources: r.skipped}, nil
}

// runner holds all per-execution state of one plan run.
type runner struct {
	p   *SelectPlan
	ctx context.Context
	out [][]sqlval.Value // the Result's rows

	row []sqlval.Value // the joined-row buffer, width p.width

	// The join state, fixed before driving starts: the driving scan and,
	// per join (index parallel to p.joins), the materialised
	// non-streamed side and its hash index. swapped marks the first join
	// running in build-left/stream-right orientation (chosen from live
	// cardinalities): its right source drives, and rights[0]/hashes[0]
	// hold the scan0 build. probing marks the first join running as an
	// index probe of its right source (planProbe): scan0's materialised
	// rows drive, and rights[0]/hashes[0] stay empty.
	driving scanPlan
	swapped bool
	probing bool
	rights  [][][]sqlval.Value
	hashes  []*joinTable

	skipped []string // sources skipped under Options.PartialResults
	err     error

	sink rowSink
}

// scanRelation dispatches one source scan: pre-filtered by the pushed
// comparisons when there are any (with or without a context), otherwise
// context-aware when the relation supports it and a context is set, plain
// otherwise. A source that is down before producing any row
// (sqldb.ErrSourceDown) is skipped — recorded, scan yields zero rows —
// under PartialResults; every other error fails the query, annotated with
// the relation name.
func (r *runner) scanRelation(sp scanPlan, h func([]sqlval.Value) bool) error {
	var err error
	pr, pre := sp.rel.(sqldb.PrefilterRelation)
	cfr, ctxEq := sp.rel.(sqldb.ContextFilteredRelation)
	cr, ctxScan := sp.rel.(sqldb.ContextRelation)
	switch {
	case pre && len(sp.where) > 0 && !slices.ContainsFunc(sp.whereParam, isSlot):
		err = pr.ScanWhere(r.ctx, sp.eqCol, sp.eqVal, sp.where, h)
	case sp.eqCol != "" && ctxEq && r.ctx != nil:
		err = cfr.ScanEqContext(r.ctx, sp.eqCol, sp.eqVal, h)
	case sp.eqCol != "":
		err = sp.rel.(sqldb.FilteredRelation).ScanEq(sp.eqCol, sp.eqVal, h)
	case ctxScan && r.ctx != nil:
		err = cr.ScanContext(r.ctx, h)
	default:
		err = sp.rel.Scan(h)
	}
	if err == nil {
		return nil
	}
	if r.p.opts.PartialResults && errors.Is(err, sqldb.ErrSourceDown) {
		if name := sqldb.SourceOf(err, sp.rel.Name()); !slices.Contains(r.skipped, name) {
			r.skipped = append(r.skipped, name)
		}
		return nil
	}
	return fmt.Errorf("scan %s: %w", sp.rel.Name(), err)
}

// rowSink consumes completed joined rows and produces output rows.
type rowSink interface {
	// add consumes one joined row; returning false stops the pipeline.
	add(row []sqlval.Value) bool
	// finish flushes buffered output (sorting, grouping, …).
	finish() error
}

func (r *runner) run() error {
	p := r.p
	if p.fromless {
		out := make([]sqlval.Value, len(p.items))
		for i, it := range p.items {
			v, err := it.eval(nil)
			if err != nil {
				return err
			}
			out[i] = v
		}
		r.out = [][]sqlval.Value{out}
		return nil
	}

	r.row = make([]sqlval.Value, p.width)
	r.driving = p.scan0
	r.rights = make([][][]sqlval.Value, len(p.joins))
	r.hashes = make([]*joinTable, len(p.joins))

	// Decide the orientation of the first join: when both base relations
	// expose O(1) cardinalities and the left side is the smaller input,
	// build the hash over the left scan and stream the right one. A
	// pushed-down equality seek marks its side as tiny. The left rows of
	// such a join may instead drive index probes of the right side.
	var probeRows [][]sqlval.Value
	if len(p.joins) > 0 && p.joins[0].kind == joinHash {
		le, lok := scanEstimate(p.scan0)
		re, rok := scanEstimate(p.joins[0].src)
		if r.swapped = lok && rok && le < re; r.swapped {
			r.driving = p.joins[0].src
			var err error
			if probeRows, err = r.planProbe(); err != nil {
				return err
			}
		}
	}

	// The sides are built in join order (sequentially, so no table locks
	// nest); then the driving scan streams through feed, or the probe's
	// materialised driving rows do.
	for i := range p.joins {
		if err := r.buildSide(i); err != nil {
			return err
		}
	}
	if p.grouped {
		r.sink = newGroupedSink(r)
	} else {
		est, _ := scanEstimate(r.driving)
		r.sink = newPlainSink(r, keep(p.limit, p.offset), est)
	}
	if r.probing {
		for _, in := range probeRows {
			if !r.feed(in) {
				break
			}
		}
	} else if err := r.scanRelation(r.driving, r.feed); err != nil && r.err == nil {
		r.err = err
	}
	if r.err != nil {
		return r.err
	}
	return r.sink.finish()
}

// probeRatio bounds the index-probe join: the first join probes its
// indexed inner side once per driving row only while the driving rows
// number at most 1/probeRatio of the inner relation's rows. A probe costs
// a seek (lock, key encoding, map lookup) per driving row where the hash
// path streams every inner row. On BenchmarkSQLScanFilter/ProbeShare
// (4 000 inner rows, 2-core box), timed against a hash join forced over
// the same rows, the probe still wins at one driving row per four inner
// rows (1.05–1.32 vs 1.61–1.64 ms) and loses at one per two (2.57–3.40
// vs 2.33 ms).
const probeRatio = 4

// indexedTable is a local table that seeks through hash indexes
// (*sqldb.Table): the inner side an index-probe join can probe.
type indexedTable interface {
	sqldb.FilteredRelation
	HasIndex(col string) bool
	Len() int
}

// planProbe decides, for a swapped first join, between the hash path and
// an index-probe join. It materialises the left scan — the build side the
// swapped hash join needs anyway — and probes when the inner (right) side
// is a local table with a hash index on its join column, the left rows
// are few next to its rows, and every left key seeks exactly (probeSeek).
// Probing returns the left rows, which then drive the pipeline unswapped;
// otherwise they become the hash build, so nothing is scanned twice. The
// decision reads only the rows.
func (r *runner) planProbe() ([][]sqlval.Value, error) {
	p := r.p
	j := &p.joins[0]
	inner, ok := j.src.rel.(indexedTable)
	if !ok || j.src.eqCol != "" {
		return nil, nil
	}
	col := inner.Schema()[j.rightSlot-j.src.offset]
	if !inner.HasIndex(col.Name) {
		return nil, nil
	}
	rows, err := r.materializeSide(p.scan0)
	if err != nil {
		return nil, err
	}
	key := j.leftSlot - p.scan0.offset
	probe := len(rows)*probeRatio <= inner.Len()
	for i := 0; probe && i < len(rows); i++ {
		_, _, probe = probeSeek(rows[i][key], col.Type)
	}
	if probe {
		r.probing, r.swapped, r.driving = true, false, p.scan0
		return rows, nil
	}
	r.rights[0] = rows
	r.hashes[0] = buildHash(rows, key)
	return nil, nil
}

// probeSeek returns the value that seeks, in a hash index over a column
// of type t, every row the hash join pairs with key v: v itself when it
// has type t, and a number of the other numeric type coerced to t when
// the coercion Compares equal to v. match is false when no row can pair —
// a NULL, a class mismatch, or a number with no Compare-equal value of
// type t. exact is false for a DOUBLE of magnitude 2^53 or more against an
// INTEGER column: several integers can widen to it, and one seek finds
// only one of them.
func probeSeek(v sqlval.Value, t sqlval.Type) (seek sqlval.Value, match, exact bool) {
	vt := v.Type()
	switch {
	case vt == t:
		return v, true, true
	case vt == sqlval.TypeFloat && t == sqlval.TypeInt && math.Abs(v.Float()) >= 1<<53 && !math.IsInf(v.Float(), 0):
		return v, false, false
	case v.IsNull() || !numericType(vt) || !numericType(t):
		return v, false, true
	}
	k, err := sqlval.Coerce(v, t)
	if err != nil {
		return v, false, true
	}
	if c, err := sqlval.Compare(k, v); err != nil || c != 0 {
		return v, false, true
	}
	return k, true, true
}

func numericType(t sqlval.Type) bool { return t == sqlval.TypeInt || t == sqlval.TypeFloat }

// scanEstimate returns a cheap cardinality estimate for a source: 0 when
// an equality seek was pushed down, the relation's O(1) row count when it
// exposes one, and unknown otherwise.
func scanEstimate(sp scanPlan) (int, bool) {
	if sp.eqCol != "" {
		return 0, true
	}
	if l, ok := sp.rel.(interface{ Len() int }); ok {
		return l.Len(), true
	}
	return 0, false
}

// feed is the pipeline body for one driving row: apply the source-local
// filters to the row as scanned, copy a row that passes into its slot
// segment, then run the joins. A plan without joins hands a scanned row
// of its source's width to the sink as it is: its layout is the driving
// source's, and every sink copies what it keeps. It returns false to stop
// driving.
func (r *runner) feed(in []sqlval.Value) bool {
	sp := &r.driving
	if ok, done := r.applyConjuncts(sp.filters, in); !ok {
		return !done
	}
	if len(r.p.joins) == 0 && len(in) == sp.width {
		return r.sink.add(in)
	}
	copy(r.row[sp.offset:sp.offset+sp.width], in)
	return r.step(1)
}

// applyConjuncts evaluates the conjuncts over row. ok reports whether
// every conjunct is True; done reports a hard stop (evaluation error,
// recorded in r.err).
func (r *runner) applyConjuncts(conj []pred, row []sqlval.Value) (ok, done bool) {
	ok, err := allTrue(conj, row)
	if err != nil {
		r.err = err
	}
	return ok, err != nil
}

// orient returns join k's build source — the source whose rows it
// materialises — with the slot the probing row's key sits in and the slot
// of the build's key: the right source probed by the left key, or, for a
// swapped first join, scan0 probed by the right key.
func (r *runner) orient(k int) (build *scanPlan, probe, key int) {
	j := &r.p.joins[k]
	if k == 0 && r.swapped {
		return &r.p.scan0, j.rightSlot, j.leftSlot
	}
	return &j.src, j.leftSlot, j.rightSlot
}

// buildSide materialises join k's build source and, for hash joins,
// indexes it; run builds every side through here before driving starts.
func (r *runner) buildSide(k int) error {
	if k == 0 && (r.probing || r.hashes[0] != nil) {
		return nil // probed, or built by planProbe
	}
	src, _, key := r.orient(k)
	rows, err := r.materializeSide(*src)
	if err != nil {
		return err
	}
	r.rights[k] = rows
	if kind := r.p.joins[k].kind; kind == joinHash || kind == joinHashLeft {
		r.hashes[k] = buildHash(rows, key-src.offset)
	}
	return nil
}

// materializeSide scans one source into retained rows of the source's
// width, its pushed-down equality seek and its source-local filters
// applied. Sources whose scans hand out immutable retained rows
// (sqldb.StableRowScanner — the in-memory heap tables) are kept by
// reference; anything else is deep-copied into an arena, since the
// callback rows may be reused buffers.
func (r *runner) materializeSide(sp scanPlan) ([][]sqlval.Value, error) {
	_, stable := sp.rel.(sqldb.StableRowScanner)
	var arena *sqlval.RowArena
	if !stable {
		arena = sqlval.NewRowArena(sp.width)
	}
	var rows [][]sqlval.Value
	var ferr error
	h := func(in []sqlval.Value) bool {
		var ok bool
		if ok, ferr = allTrue(sp.filters, in); !ok {
			return ferr == nil
		}
		if stable {
			rows = append(rows, in)
		} else {
			rows = append(rows, arena.Copy(in))
		}
		return true
	}
	err := r.scanRelation(sp, h)
	if err == nil {
		err = ferr
	}
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// joinTable is a hash join's index over its materialised build rows,
// frozen before driving starts: per key class a map from key to the first
// row of its chain, and next, which links each row to the following row
// of its chain in ascending row order (-1 ends a chain). A TEXT is keyed
// by its own bytes, an INTEGER or DOUBLE by the bits of the float64 it
// widens to (numKey), a BOOLEAN by its value. NULL keys are left out: they
// never equi-join. The numeric key is lossy past 2^53, where integers
// that widen to one float64 share a chain, so a probe re-verifies each
// candidate with Compare: the chain is an accelerator, not the equality
// test.
type joinTable struct {
	strs  map[string]int32
	nums  map[uint64]int32
	bools [2]int32
	next  []int32
}

// buildHash indexes rows by their join-key column (relative to the row,
// not the joined layout). It walks the rows backwards, so each new row
// becomes its chain's head and the chains run in row order. Each class's
// map is sized once, for the rows still to come when it is first needed,
// so a build allocates the same whether its keys are few or all distinct.
func buildHash(rows [][]sqlval.Value, keyCol int) *joinTable {
	t := &joinTable{bools: [2]int32{-1, -1}, next: make([]int32, len(rows))}
	for i := len(rows) - 1; i >= 0; i-- {
		v, next := rows[i][keyCol], int32(-1)
		switch v.Type() {
		case sqlval.TypeString:
			if t.strs == nil {
				t.strs = make(map[string]int32, i+1)
			}
			if h, ok := t.strs[v.Str()]; ok {
				next = h
			}
			t.strs[v.Str()] = int32(i)
		case sqlval.TypeInt, sqlval.TypeFloat:
			if t.nums == nil {
				t.nums = make(map[uint64]int32, i+1)
			}
			k := numKey(v)
			if h, ok := t.nums[k]; ok {
				next = h
			}
			t.nums[k] = int32(i)
		case sqlval.TypeBool:
			b := boolKey(v)
			next, t.bools[b] = t.bools[b], int32(i)
		}
		t.next[i] = next
	}
	return t
}

// first returns the head of the chain of rows whose key may equal v, or
// -1 when there is none (always for NULL).
func (t *joinTable) first(v sqlval.Value) int32 {
	switch v.Type() {
	case sqlval.TypeString:
		if h, ok := t.strs[v.Str()]; ok {
			return h
		}
	case sqlval.TypeInt, sqlval.TypeFloat:
		if h, ok := t.nums[numKey(v)]; ok {
			return h
		}
	case sqlval.TypeBool:
		return t.bools[boolKey(v)]
	}
	return -1
}

// canonicalNaN is the one key every NaN folds into: Compare makes all
// NaNs equal.
var canonicalNaN = math.Float64bits(math.NaN())

// numKey is the join key of a number: the bits of the float64 it widens
// to, with -0 folded into +0 and every NaN into canonicalNaN, so that
// Compare-equal numbers always share a key.
func numKey(v sqlval.Value) uint64 {
	f := v.Float()
	switch {
	case f == 0:
		return 0
	case f != f:
		return canonicalNaN
	}
	return math.Float64bits(f)
}

func boolKey(v sqlval.Value) int {
	if v.Bool() {
		return 1
	}
	return 0
}

// step runs join i (1-based; i > len(joins) hands the row to the sink).
// It returns false to stop the whole pipeline (error or early exit).
func (r *runner) step(i int) bool {
	p := r.p
	if i > len(p.joins) {
		return r.sink.add(r.row)
	}
	j := &p.joins[i-1]
	src, probe, key := r.orient(i - 1)
	seg := r.row[src.offset : src.offset+src.width]
	rows := r.rights[i-1]

	switch j.kind {
	case joinHash, joinHashLeft:
		if i == 1 && r.probing {
			return r.probe(i, j, seg)
		}
		matched := false
		v, t, keyRel := r.row[probe], r.hashes[i-1], key-src.offset
		for ri := t.first(v); ri >= 0; ri = t.next[ri] {
			// The chain may hold Compare-unequal values (the numeric key
			// is lossy past 2^53): re-verify the actual equality.
			if c, ok := sqlval.TryCompare(v, rows[ri][keyRel]); !ok || c != 0 {
				continue
			}
			copy(seg, rows[ri])
			cont, passed := r.emit(i, j)
			matched = matched || passed
			if !cont {
				return false
			}
		}
		if j.kind == joinHashLeft && !matched {
			return r.padAndDescend(i, j, seg)
		}
	case joinNested, joinNestedLeft:
		matched := false
		for _, rr := range rows {
			copy(seg, rr)
			cont, passed := r.emit(i, j)
			matched = matched || passed
			if !cont {
				return false
			}
		}
		if j.kind == joinNestedLeft && !matched {
			return r.padAndDescend(i, j, seg)
		}
	case joinCross:
		for _, rr := range rows {
			copy(seg, rr)
			if cont, _ := r.emit(i, j); !cont {
				return false
			}
		}
	}
	return true
}

// emit hands the candidate pair of join i in the joined-row buffer on:
// residual ON conjuncts decide whether the pair counts as matched (passed),
// post WHERE conjuncts only gate the descent to the next step. cont false
// stops the pipeline.
func (r *runner) emit(i int, j *joinPlan) (cont, passed bool) {
	if ok, done := r.applyConjuncts(j.residual, r.row); !ok {
		return !done, false
	}
	if ok, done := r.applyConjuncts(j.post, r.row); !ok {
		return !done, true
	}
	return r.step(i + 1), true
}

// probe runs the first join as an index nested loop: it seeks the inner
// table on the driving row's key and pairs each row the seek returns that
// Compares equal to the key, as the hash path re-checks its bucket, and
// passes the inner side's own filters, run on the row before the copy.
func (r *runner) probe(i int, j *joinPlan, seg []sqlval.Value) bool {
	v := r.row[j.leftSlot]
	keyRel := j.rightSlot - j.src.offset
	col := j.src.rel.Schema()[keyRel]
	seek, match, _ := probeSeek(v, col.Type)
	if !match {
		return true
	}
	cont := true
	err := j.src.rel.(sqldb.FilteredRelation).ScanEq(col.Name, seek, func(in []sqlval.Value) bool {
		if c, err := sqlval.Compare(v, in[keyRel]); err != nil || c != 0 {
			return true
		}
		ok, done := r.applyConjuncts(j.src.filters, in)
		if ok {
			copy(seg, in)
			cont, _ = r.emit(i, j)
		} else {
			cont = !done
		}
		return cont
	})
	if err != nil && r.err == nil {
		r.err = fmt.Errorf("scan %s: %w", j.src.rel.Name(), err)
		return false
	}
	return cont
}

// padAndDescend fills the right segment with NULLs (unmatched LEFT JOIN
// row), applies the post conjuncts and descends.
func (r *runner) padAndDescend(i int, j *joinPlan, seg []sqlval.Value) bool {
	for k := range seg {
		seg[k] = sqlval.Null
	}
	if ok, done := r.applyConjuncts(j.post, r.row); !ok {
		return !done
	}
	return r.step(i + 1)
}

// --- plain (non-grouped) sink ---

type plainSink struct {
	r     *runner
	p     *SelectPlan
	out   []sqlval.Value   // reused projection buffer, then the hidden ORDER BY keys
	arena *sqlval.RowArena // the output rows copied from out

	distinct *distinctSet // nil without DISTINCT
	sorter   *rowSorter

	seq            int64 // the arrival stamp of the next row added
	count, skipped int   // rows put out and rows skipped by OFFSET
}

// newPlainSink returns the plan's plain sink. Under ORDER BY its sorter
// keeps k rows (-1: all) and presizes for the hint rows the caller
// expects to reach it.
func newPlainSink(r *runner, k, hint int) *plainSink {
	p := r.p
	s := &plainSink{r: r, p: p, out: make([]sqlval.Value, p.sortWidth)}
	if p.distinct {
		s.distinct = &distinctSet{seen: make(map[string]struct{})}
	}
	if len(p.order) > 0 {
		s.sorter = newRowSorter(p.order, p.sortWidth, k, hint)
	} else {
		s.arena = sqlval.NewRowArena(len(p.items))
	}
	return s
}

func (s *plainSink) add(row []sqlval.Value) bool {
	for i, it := range s.p.items {
		v, err := it.eval(row)
		if err != nil {
			s.r.err = err
			return false
		}
		s.out[i] = v
	}
	s.seq++
	return s.deliver(row, s.seq-1)
}

// deliver runs the DISTINCT / ORDER BY / LIMIT tail over the projected
// row; under is the row order keys fall back to when they reference
// non-projected columns, at the row's arrival stamp (the sort tiebreak).
func (s *plainSink) deliver(under []sqlval.Value, at int64) bool {
	if s.distinct.dup(s.out[:len(s.p.items)]) {
		return true
	}
	if s.sorter != nil {
		if err := s.evalKeys(under); err != nil {
			s.r.err = err
			return false
		}
		s.sorter.add(s.out, at)
		return true
	}
	return s.window()
}

// distinctSet holds the DISTINCT keys of the rows seen so far; a nil set
// (no DISTINCT) holds none.
type distinctSet struct {
	seen map[string]struct{}
	key  []byte
}

// dup reports whether an earlier row held the same values as row, and
// remembers row's values otherwise.
func (d *distinctSet) dup(row []sqlval.Value) bool {
	if d == nil {
		return false
	}
	d.key = d.key[:0]
	for _, v := range row {
		d.key = sqlval.AppendKey(d.key, v)
	}
	if _, ok := d.seen[string(d.key)]; ok {
		return true
	}
	d.seen[string(d.key)] = struct{}{}
	return false
}

// window applies OFFSET and LIMIT to the next output row and puts one
// copy of the projected out into the Result. It returns false once no
// further row can pass.
func (s *plainSink) window() bool {
	offset, limit := s.p.offset, s.p.limit
	if offset > 0 && s.skipped < offset {
		s.skipped++
		return true
	}
	if limit == 0 {
		return false
	}
	s.r.out = append(s.r.out, s.arena.Copy(s.out))
	s.count++
	return limit < 0 || s.count < limit
}

// windowOut collects a sorted window of output rows, each cut to its
// first n (projected) columns, into a slice of the window's exact length.
// The rows already live in a sorter's arena, so they are handed over as
// they are, capped at n so that appending to one can never overwrite its
// hidden key slots — unless the window is under half of the buffered rows
// it was selected from: then a fresh arena, which grows with the window,
// takes a copy, so that a small window does not pin a large arena, and
// the sorter's arena is recycled for the next sorter (putSortScratch).
type windowOut struct {
	rows  [][]sqlval.Value
	arena *sqlval.RowArena // nil when handing over
	n     int
}

func newWindowOut(size, buffered, n int) windowOut {
	w := windowOut{rows: make([][]sqlval.Value, 0, size), n: n}
	if 2*size < buffered {
		w.arena = sqlval.NewRowArena(n)
	}
	return w
}

func (w *windowOut) add(row []sqlval.Value) {
	if w.arena != nil {
		row = w.arena.Copy(row[:w.n])
	}
	w.rows = append(w.rows, row[:w.n:w.n])
}

// evalKeys evaluates the ORDER BY keys that no projected column holds
// into their hidden slots of out. A key resolving against the projected
// row falls back to the underlying row per row when it errors there.
func (s *plainSink) evalKeys(under []sqlval.Value) error {
	for _, op := range s.p.order {
		if op.at < len(s.p.items) {
			continue
		}
		var v sqlval.Value
		var err error
		if op.outKey != nil {
			v, err = op.outKey.eval(s.out)
			if err != nil && op.underKey != nil {
				v, err = op.underKey.eval(under)
			}
		} else {
			v, err = op.underKey.eval(under)
		}
		if err != nil {
			return err
		}
		s.out[op.at] = v
	}
	return nil
}

func (s *plainSink) finish() error {
	if s.sorter != nil {
		win := bracketWindow(s.p.order, s.sorter.rows, s.p.offset, s.p.limit)
		w := newWindowOut(len(win), len(s.sorter.rows), len(s.p.items))
		for _, sr := range win {
			w.add(sr.row)
		}
		s.r.out = w.rows
		putSortScratch(s.sorter.rows, s.sorter.arena, w.arena != nil)
		s.sorter = nil
	}
	return nil
}

// --- grouped sink ---

type groupState struct {
	first []sqlval.Value // retained copy of the group's first joined row
	aggs  []*aggState
}

type groupedSink struct {
	r *runner
	p *SelectPlan

	groups map[string]*groupState
	order  []*groupState
	arena  *sqlval.RowArena

	keyScratch []byte
}

// newGroup starts a group at its first row.
func newGroup(g *groupSink, first []sqlval.Value) *groupState {
	grp := &groupState{first: first, aggs: make([]*aggState, len(g.aggs))}
	for i, a := range g.aggs {
		grp.aggs[i] = newAggState(a.fc)
	}
	return grp
}

func newGroupedSink(r *runner) *groupedSink {
	return &groupedSink{
		r:      r,
		p:      r.p,
		groups: make(map[string]*groupState),
		arena:  sqlval.NewRowArena(r.p.width),
	}
}

func (s *groupedSink) add(row []sqlval.Value) bool {
	g := s.p.group
	s.keyScratch = s.keyScratch[:0]
	for _, ke := range g.keys {
		v, err := ke.eval(row)
		if err != nil {
			s.r.err = err
			return false
		}
		s.keyScratch = sqlval.AppendKey(s.keyScratch, v)
	}
	grp, ok := s.groups[string(s.keyScratch)]
	if !ok {
		grp = newGroup(g, s.arena.Copy(row))
		s.groups[string(s.keyScratch)] = grp
		s.order = append(s.order, grp)
	}
	for i, a := range g.aggs {
		if a.arg == nil { // COUNT(*)
			grp.aggs[i].count++
			continue
		}
		v, err := a.arg.eval(row)
		if err != nil {
			s.r.err = err
			return false
		}
		if err := grp.aggs[i].addValue(v); err != nil {
			s.r.err = err
			return false
		}
	}
	return true
}

// finish runs the HAVING / projection / DISTINCT / ORDER / LIMIT tail
// over the completed groups in first-seen order.
func (s *groupedSink) finish() error {
	r, p, order := s.r, s.p, s.order
	g := p.group
	// A grand-total aggregate over zero rows still yields one group.
	if len(order) == 0 && len(g.keys) == 0 {
		order = append(order, newGroup(g, make([]sqlval.Value, p.width)))
	}

	// The emit tail shares the plain sink's DISTINCT/ORDER/LIMIT logic.
	tail := newPlainSink(r, keep(p.limit, p.offset), len(order))
	ext := make([]sqlval.Value, p.width+len(g.aggs))
	for gi, grp := range order {
		copy(ext, grp.first)
		for i, a := range grp.aggs {
			v, err := a.result()
			if err != nil {
				return err
			}
			ext[p.width+i] = v
		}
		if g.having != nil {
			t, err := cEvalBool(g.having, ext)
			if err != nil {
				return err
			}
			if t != sqlval.True {
				continue
			}
		}
		for i, it := range p.items {
			v, err := it.eval(ext)
			if err != nil {
				return err
			}
			tail.out[i] = v
		}
		if !tail.deliver(ext, int64(gi)) {
			return r.err
		}
	}
	return tail.finish()
}
