package sqlexec

// parallel.go — morsel-driven parallel execution of compiled SelectPlans.
// The driving scan is materialised once in serial enumeration order and
// partitioned into fixed-size morsels; a bounded worker pool (see
// internal/exec) claims morsels from an atomic counter and runs the full
// join/filter/projection pipeline per worker against the shared, frozen
// right-side rows and hash tables. All mutable execution state — the
// joined-row buffer, projection buffer, DISTINCT sets, aggregation maps,
// top-K heaps — is per worker; output is buffered per morsel (or stamped
// with its (morsel, seq) arrival position) and merged in morsel order, so
// the parallel output is byte-identical to the serial pipeline's: same
// rows, same order, same ties, same first error.
//
// Hash-join builds past the threshold are partitioned two-phase parallel
// builds (parallelBuildHash); float SUM/AVG folds per-morsel compensated
// partials in morsel order (see aggState); DISTINCT aggregates collect
// stamped first occurrences and replay them after the merge; and ORDER BY
// merges the per-worker heaps as sorted runs (exec.MergeSorted). The
// shapes that still fall back to serial — driving relations without an
// O(1) cardinality (foreign tables), pushed-down equality seeks (tiny by
// construction), inputs below parallelMinRows, LIMIT 0 — record why in
// runShared.fallback, surfaced as StreamInfo.ParallelFallback.

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	sched "crosse/internal/exec"
	"crosse/internal/sqldb"
	"crosse/internal/sqlval"
)

// Tuning knobs. Variables rather than constants so the parity suite can
// force the parallel path on small inputs.
var (
	// parallelMinRows is the driving-scan cardinality below which the
	// serial pipeline runs instead.
	parallelMinRows = 4096
	// parallelMorsel is the number of driving rows per morsel.
	parallelMorsel = 1024
)

// tryParallel runs the plan on the parallel path when it is eligible,
// reporting done=false to let the serial pipeline take over; every decline
// records its reason in runShared.fallback for Stats visibility.
func (r *runner) tryParallel() (done bool, err error) {
	p := r.p
	workers := sched.Workers(p.opts.Parallelism)
	if workers <= 1 {
		r.shared.fallback = "parallelism=1"
		return false, nil
	}
	if p.limit == 0 {
		r.shared.fallback = "limit 0"
		return false, nil
	}
	if p.grouped {
		for _, a := range p.group.aggs {
			if !mergeableAgg(a.fc) {
				r.shared.fallback = "non-mergeable aggregate " + a.fc.Name
				return false, nil
			}
		}
	}
	driving := p.scan0
	if r.swapped {
		driving = p.joins[0].src
	}
	est, ok := scanEstimate(driving)
	if !ok {
		r.shared.fallback = "driving scan has no O(1) cardinality"
		return false, nil
	}
	if est < parallelMinRows {
		r.shared.fallback = "driving scan below parallel threshold"
		return false, nil
	}
	return true, r.runParallel(workers, driving)
}

// parMorsel is one morsel's buffered output: projected rows (plain
// unsorted mode only) and the first error the worker hit inside the
// morsel. Exactly one worker writes each element.
type parMorsel struct {
	rows [][]sqlval.Value
	err  error
}

func (r *runner) runParallel(workers int, driving scanPlan) error {
	p := r.p

	// Build every non-streamed side and materialise the driving scan
	// concurrently, each with its own scratch row; everything is frozen
	// before the first worker starts. The driving side is materialised
	// raw — its source-local filters run on the workers.
	var (
		wg        sync.WaitGroup
		drive     [][]sqlval.Value
		driveErr  error
		buildErrs = make([]error, len(p.joins))
	)
	r.rights = make([][][]sqlval.Value, len(p.joins))
	r.hashes = make([]*joinTable, len(p.joins))
	wg.Add(1)
	go func() {
		defer wg.Done()
		drive, driveErr = p.materializeSide(r.shared, driving, true)
	}()
	for i := range p.joins {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if r.swapped && i == 0 {
				rows, err := p.materializeSide(r.shared, p.scan0, false)
				if err != nil {
					buildErrs[0] = err
					return
				}
				r.leftRows = rows
				r.leftHash = parallelBuildHash(workers, rows, p.joins[0].leftSlot-p.scan0.offset)
				return
			}
			rows, err := p.materializeSide(r.shared, p.joins[i].src, false)
			if err != nil {
				buildErrs[i] = err
				return
			}
			r.rights[i] = rows
			switch p.joins[i].kind {
			case joinHash, joinHashLeft:
				r.hashes[i] = parallelBuildHash(workers, rows, p.joins[i].rightSlot-p.joins[i].src.offset)
			}
		}(i)
	}
	wg.Wait()
	// Report the error the serial pipeline would have hit first: builds
	// happen in join order, the driving scan after them.
	for _, err := range buildErrs {
		if err != nil {
			return err
		}
	}
	if driveErr != nil {
		return driveErr
	}

	// A completed prefix of morsels can prove a LIMIT satisfied — but
	// only when buffered rows map 1:1 to merged output rows (no global
	// DISTINCT collapsing, no sort reordering, no group aggregation).
	need := -1
	if !p.grouped && len(p.order) == 0 && !p.distinct && p.limit >= 0 {
		need = p.limit + max(p.offset, 0)
	}
	nm := sched.Morsels(len(drive), parallelMorsel)
	pool := sched.NewPool(workers, nm, need)
	res := make([]parMorsel, nm)
	ws := make([]*parWorker, pool.Workers())
	for i := range ws {
		ws[i] = newParWorker(r, pool, res)
	}
	pool.Run(func(worker, m int) {
		ws[worker].runMorsel(m, drive)
	})

	switch {
	case p.grouped:
		return r.mergeGroups(ws, res)
	case len(p.order) > 0:
		return r.mergeSorted(ws, res)
	default:
		return r.mergePlain(res)
	}
}

// parallelBuildHash builds the hash index over materialised build rows.
// Small sides build serially; past the threshold the build runs in two
// barrier-separated pool runs: a scatter phase walks the
// row morsels and partitions each row index by the FNV-1a hash of its
// encoded join key, then an assemble phase builds each partition's bucket
// map by visiting the scatter lists in morsel order — so every bucket
// holds globally ascending row indexes, exactly as the serial single-map
// build inserts them, with no rehashing and no cross-worker merging. The
// probe side only ever sees identical bucket contents, which keeps the
// parallel output byte-identical to serial.
func parallelBuildHash(workers int, rows [][]sqlval.Value, keyCol int) *joinTable {
	if workers <= 1 || len(rows) < parallelMinRows {
		return buildHash(rows, keyCol)
	}
	nparts := 1
	for nparts < workers {
		nparts <<= 1
	}
	mask := uint32(nparts - 1)
	nm := sched.Morsels(len(rows), parallelMorsel)
	scatter := make([][][]int32, nm) // [morsel][partition] → row indexes
	sched.NewPool(workers, nm, -1).Run(func(_, m int) {
		lo, hi := sched.Bounds(m, parallelMorsel, len(rows))
		lists := make([][]int32, nparts)
		var scratch []byte
		for i := lo; i < hi; i++ {
			v := rows[i][keyCol]
			if v.IsNull() {
				continue // NULL keys never equi-join
			}
			scratch = sqlval.AppendJoinKey(scratch[:0], v)
			pt := hashJoinKey(scratch) & mask
			lists[pt] = append(lists[pt], int32(i))
		}
		scatter[m] = lists
	})
	parts := make([]map[string][]int32, nparts)
	sched.NewPool(workers, nparts, -1).Run(func(_, pt int) {
		buckets := make(map[string][]int32)
		var scratch []byte
		for m := 0; m < nm; m++ {
			for _, i := range scatter[m][pt] {
				scratch = sqlval.AppendJoinKey(scratch[:0], rows[i][keyCol])
				k := string(scratch)
				buckets[k] = append(buckets[k], i)
			}
		}
		parts[pt] = buckets
	})
	return &joinTable{parts: parts, mask: mask}
}

// materializeSide scans one source into retained rows of the source's
// width, using its own full-width scratch row (so concurrent builds never
// share state). The pushed-down equality seek always applies; the
// source-local filters apply unless raw is set. Sources whose scans hand
// out immutable retained rows (sqldb.StableRowScanner — the in-memory
// heap tables) are kept by reference; anything else is deep-copied into
// an arena, since the callback rows may be reused buffers.
func (p *SelectPlan) materializeSide(sh *runShared, sp scanPlan, raw bool) ([][]sqlval.Value, error) {
	tmp := &runner{p: p, row: make([]sqlval.Value, p.width), shared: sh}
	_, stable := sp.rel.(sqldb.StableRowScanner)
	var arena *sqlval.RowArena
	if !stable {
		arena = sqlval.NewRowArena(sp.width)
	}
	var rows [][]sqlval.Value
	if n, ok := sp.rel.(interface{ Len() int }); ok && raw {
		rows = make([][]sqlval.Value, 0, n.Len())
	}
	seg := tmp.row[sp.offset : sp.offset+sp.width]
	h := func(in []sqlval.Value) bool {
		if !raw {
			copy(seg, in)
			if ok, done := tmp.applyConjuncts(sp.filters); !ok {
				return !done
			}
		}
		if stable {
			rows = append(rows, in)
		} else {
			rows = append(rows, arena.Copy(in))
		}
		return true
	}
	err := sh.scanRelation(sp, h)
	if err == nil {
		err = tmp.err
	}
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// parWorker is one worker's private execution state: a runner over its
// own joined-row buffer (sharing the frozen sides through the coordinator
// runner's fields) plus the mode-specific output buffers it sinks into.
type parWorker struct {
	r    *runner
	p    *SelectPlan
	pool *sched.Pool
	res  []parMorsel

	morsel int   // morsel being processed
	seq    int64 // arrival sequence within the morsel

	out []sqlval.Value // reused projection buffer

	// plain unsorted mode: locally deduplicated projected rows, buffered
	// per morsel.
	seen       map[string]struct{}
	keyScratch []byte
	arena      *sqlval.RowArena
	buf        [][]sqlval.Value

	// ORDER BY mode: a per-worker heap (bounded exactly like the serial
	// one, or unbounded under DISTINCT) of (keys, row, stamp) entries.
	sorter *topKSorter

	// grouped mode: per-worker aggregation map with arrival stamps.
	groups map[string]*groupState
	gorder []*groupState
	garena *sqlval.RowArena
	gkey   []byte
}

func newParWorker(r *runner, pool *sched.Pool, res []parMorsel) *parWorker {
	p := r.p
	wr := &runner{
		p:        p,
		row:      make([]sqlval.Value, p.width),
		shared:   r.shared,
		rights:   r.rights,
		hashes:   r.hashes,
		swapped:  r.swapped,
		leftRows: r.leftRows,
		leftHash: r.leftHash,
	}
	w := &parWorker{r: wr, p: p, pool: pool, res: res}
	wr.sink = w
	if p.grouped {
		w.groups = make(map[string]*groupState)
		w.garena = sqlval.NewRowArena(p.width)
		return w
	}
	w.out = make([]sqlval.Value, len(p.items))
	if p.distinct {
		w.seen = map[string]struct{}{}
	}
	if len(p.order) > 0 {
		w.sorter = newTopKSorter(p, len(p.headers))
		if p.distinct {
			// Bounding the heap before the cross-worker DISTINCT merge
			// could evict rows that global deduplication would promote
			// into the top K; keep everything and bound at the merge.
			w.sorter.cap = -1
		}
	} else {
		w.arena = sqlval.NewRowArena(len(p.items))
	}
	return w
}

// runMorsel drives the pipeline over one morsel of the driving rows,
// mirroring the serial scan loop (including the swapped-orientation
// probe), and records the morsel's buffered output and first error.
func (w *parWorker) runMorsel(m int, drive [][]sqlval.Value) {
	w.morsel = m
	w.seq = 0
	w.buf = nil
	if w.sorter != nil {
		w.sorter.seq = sched.At(m, 0)
	}
	r := w.r
	r.stopped = false
	p := w.p
	lo, hi := sched.Bounds(m, parallelMorsel, len(drive))

	if r.swapped {
		j := &p.joins[0]
		seg := r.row[j.src.offset : j.src.offset+j.src.width]
		var scratch []byte
	swp:
		for i := lo; i < hi; i++ {
			if w.pool.Cancelled(m) {
				break
			}
			copy(seg, drive[i])
			if ok, done := r.applyConjuncts(j.src.filters); !ok {
				if done {
					break
				}
				continue
			}
			v := r.row[j.rightSlot]
			if v.IsNull() {
				continue
			}
			scratch = sqlval.AppendJoinKey(scratch[:0], v)
			for _, li := range r.leftHash.lookup(scratch) {
				if cmp, err := sqlval.Compare(v, r.leftRows[li][j.leftSlot]); err != nil || cmp != 0 {
					continue
				}
				copy(r.row[:p.scan0.width], r.leftRows[li])
				if ok, done := r.applyConjuncts(j.residual); !ok {
					if done {
						break swp
					}
					continue
				}
				if ok, done := r.applyConjuncts(j.post); !ok {
					if done {
						break swp
					}
					continue
				}
				if !r.step(2) {
					break swp
				}
			}
		}
	} else {
		seg := r.row[p.scan0.offset : p.scan0.offset+p.scan0.width]
		for i := lo; i < hi; i++ {
			if w.pool.Cancelled(m) {
				break
			}
			copy(seg, drive[i])
			if ok, done := r.applyConjuncts(p.scan0.filters); !ok {
				if done {
					break
				}
				continue
			}
			if !r.step(1) {
				break
			}
		}
	}

	if r.err != nil {
		w.res[m].err = r.err
		r.err = nil
		// Output past an error is discarded; stop fanning out beyond it.
		w.pool.Cut(m + 1)
	}
	w.res[m].rows = w.buf
	w.pool.Done(m, len(w.buf))
}

// add is the worker's rowSink: it consumes one completed joined row.
func (w *parWorker) add(row []sqlval.Value) bool {
	if w.groups != nil {
		return w.addGroup(row)
	}
	for i, it := range w.p.items {
		v, err := it.eval(row)
		if err != nil {
			w.r.err = err
			return false
		}
		w.out[i] = v
	}
	if w.seen != nil {
		// Worker-local DISTINCT pre-filter. A worker's morsel sequence is
		// strictly increasing, so a locally seen key was seen at an
		// earlier global position too — dropping here can only drop rows
		// the global merge would drop. The merge re-deduplicates across
		// workers.
		w.keyScratch = w.keyScratch[:0]
		for _, v := range w.out {
			w.keyScratch = sqlval.AppendKey(w.keyScratch, v)
		}
		if _, dup := w.seen[string(w.keyScratch)]; dup {
			return true
		}
		w.seen[string(w.keyScratch)] = struct{}{}
	}
	if w.sorter != nil {
		if err := w.sorter.add(w.out, row); err != nil {
			w.r.err = err
			return false
		}
		return !w.pool.Cancelled(w.morsel)
	}
	w.buf = append(w.buf, w.arena.Copy(w.out))
	w.seq++
	return !w.pool.Cancelled(w.morsel)
}

func (w *parWorker) addGroup(row []sqlval.Value) bool {
	g := w.p.group
	w.gkey = w.gkey[:0]
	for _, ke := range g.keys {
		v, err := ke.eval(row)
		if err != nil {
			w.r.err = err
			return false
		}
		w.gkey = sqlval.AppendKey(w.gkey, v)
	}
	at := sched.At(w.morsel, w.seq)
	w.seq++
	grp, ok := w.groups[string(w.gkey)]
	if !ok {
		grp = &groupState{first: w.garena.Copy(row), firstAt: at}
		grp.aggs = make([]*aggState, len(g.aggs))
		for i, a := range g.aggs {
			grp.aggs[i] = newCollectAggState(a.fc)
		}
		w.groups[string(w.gkey)] = grp
		w.gorder = append(w.gorder, grp)
	}
	for i, a := range g.aggs {
		if a.arg == nil { // COUNT(*)
			grp.aggs[i].count++
			continue
		}
		v, err := a.arg.eval(row)
		if err != nil {
			w.r.err = err
			return false
		}
		grp.aggs[i].stamp = at
		if err := grp.aggs[i].addValue(v); err != nil {
			w.r.err = err
			return false
		}
	}
	return !w.pool.Cancelled(w.morsel)
}

func (w *parWorker) finish() error { return nil }

// mergePlain replays the per-morsel buffers in morsel order through a
// fresh plain sink — global DISTINCT, OFFSET, LIMIT and the caller's
// yield all behave exactly as on the serial path, including rows buffered
// before a worker's error.
func (r *runner) mergePlain(res []parMorsel) error {
	tail := newPlainSink(r)
	for m := range res {
		for _, row := range res[m].rows {
			copy(tail.out, row)
			if !tail.deliver(nil) {
				return r.err
			}
		}
		if res[m].err != nil {
			return res[m].err
		}
	}
	return nil
}

// mergeSorted combines the per-worker heaps. Every globally retained row
// is in some worker's heap (a worker's heap is at least as selective as
// the global one), and (keys, stamp) is a strict total order, so merging
// the heaps as sorted runs and slicing OFFSET/LIMIT off the merged stream
// reproduces the serial stable sort, ties included. Under DISTINCT the
// candidates are first deduplicated in arrival-stamp order — the order the
// serial sink deduplicates in, before it sorts.
func (r *runner) mergeSorted(ws []*parWorker, res []parMorsel) error {
	for m := range res {
		if res[m].err != nil {
			return res[m].err
		}
	}
	p := r.p
	runs := make([][]sortedRow, len(ws))
	for i, w := range ws {
		runs[i] = w.sorter.rows
	}
	if p.distinct {
		all := slices.Concat(runs...)
		slices.SortFunc(all, func(a, b sortedRow) int { return cmp.Compare(a.seq, b.seq) })
		seen := make(map[string]struct{}, len(all))
		var key []byte
		kept := all[:0]
		for _, sr := range all {
			key = key[:0]
			for _, v := range sr.row {
				key = sqlval.AppendKey(key, v)
			}
			if _, dup := seen[string(key)]; dup {
				continue
			}
			seen[string(key)] = struct{}{}
			kept = append(kept, sr)
		}
		runs = [][]sortedRow{kept}
	}
	skip, count := p.offset, 0
	sched.MergeSorted(len(ws), runs, func(a, b sortedRow) int { return orderCmp(p.order, &a, &b) },
		func(sr sortedRow) bool {
			if skip > 0 {
				skip--
				return true
			}
			if !r.yield(sr.row) {
				return false
			}
			count++
			return p.limit < 0 || count < p.limit
		})
	return nil
}

// mergeGroups folds the per-worker aggregation maps into one group set.
// COUNT partials sum exactly, MIN/MAX partials compare with their arrival
// stamps breaking CompareForSort ties toward the globally first value,
// each group's representative first-row is the one with the smallest
// stamp, and the merged groups are ordered by that stamp — first-seen
// order, exactly as the serial grouped sink built it. The shared
// HAVING/projection/ORDER tail then runs unchanged.
func (r *runner) mergeGroups(ws []*parWorker, res []parMorsel) error {
	for m := range res {
		if res[m].err != nil {
			return res[m].err
		}
	}
	combined := make(map[string]*groupState)
	for _, w := range ws {
		for key, grp := range w.groups {
			have, ok := combined[key]
			if !ok {
				combined[key] = grp
				continue
			}
			if grp.firstAt < have.firstAt {
				for i := range grp.aggs {
					grp.aggs[i].merge(have.aggs[i])
				}
				combined[key] = grp
			} else {
				for i := range have.aggs {
					have.aggs[i].merge(grp.aggs[i])
				}
			}
		}
	}
	order := make([]*groupState, 0, len(combined))
	for _, g := range combined {
		order = append(order, g)
	}
	sort.Slice(order, func(i, j int) bool { return order[i].firstAt < order[j].firstAt })
	// DISTINCT aggregates were collected, not accumulated: replay the
	// merged first occurrences in global arrival order now.
	for _, g := range order {
		for _, a := range g.aggs {
			if err := a.resolveDistinct(); err != nil {
				return err
			}
		}
	}
	return emitGroups(r, order)
}
