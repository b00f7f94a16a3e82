package sqlexec

// parallel.go — morsel-driven parallel execution of compiled SelectPlans
// without aggregates. The driving scan is materialised once in serial
// enumeration order and partitioned into fixed-size morsels; a bounded
// worker pool (see internal/exec) claims morsels from an atomic counter.
// This is the second driver of the one pipeline in run.go: each worker is
// a runner that feeds its morsels' rows through runner.feed — the body the
// serial driver streams its scan into — over its own joined-row buffer and
// its own plain sink, against the coordinator's frozen join sides (built
// by the same buildSide, serially and in join order, zero-copy for heap
// tables). Output is buffered per morsel (or stamped with its (morsel,
// seq) arrival position, derived from drivePos exactly as on the serial
// path) and merged in morsel order, so the parallel output is
// byte-identical to the serial pipeline's: same rows, same order, same
// ties, same first error. A worker's buffered rows are its own arena
// copies, and the merge hands them to the Result as they are instead of
// copying them again.
//
// ORDER BY selects its window from the per-worker buffers (windowRuns),
// or, without a LIMIT, merges them as sorted runs (exec.MergeSorted). The
// shapes that run serially — aggregate plans (GROUP BY or an aggregate
// select list: a per-worker aggregation merge lost to the serial grouped
// sink on every measurement), driving relations without an O(1)
// cardinality (foreign tables), pushed-down equality seeks (tiny by
// construction), inputs below parallelMinRows, LIMIT 0 — record why in
// runShared.fallback, surfaced as Result.ParallelFallback.

import (
	"cmp"
	"slices"

	sched "crosse/internal/exec"
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
		r.shared.fallback = "aggregate"
		return false, nil
	}
	est, ok := scanEstimate(r.driving)
	if !ok {
		r.shared.fallback = "driving scan has no O(1) cardinality"
		return false, nil
	}
	if est < parallelMinRows {
		r.shared.fallback = "driving scan below parallel threshold"
		return false, nil
	}
	return true, r.runParallel(workers)
}

// parMorsel is one morsel's buffered output: projected rows (plain
// unsorted mode only) and the first error the worker hit inside the
// morsel. Exactly one worker writes each element.
type parMorsel struct {
	rows [][]sqlval.Value
	err  error
}

func (r *runner) runParallel(workers int) error {
	p := r.p

	// run has built the sides; the driving scan is materialised after
	// them, raw — its source-local filters run in feed — and everything
	// is frozen before the first worker starts.
	drive, err := materializeSide(r.shared, r.driving, true)
	if err != nil {
		return err
	}

	// A completed prefix of morsels can prove a LIMIT satisfied — but
	// only when buffered rows map 1:1 to merged output rows (no global
	// DISTINCT collapsing, no sort reordering).
	need := -1
	if len(p.order) == 0 && !p.distinct && p.limit >= 0 {
		need = p.limit + max(p.offset, 0)
	}
	nm := sched.Morsels(len(drive), parallelMorsel)
	pool := sched.NewPool(workers, nm, need)
	res := make([]parMorsel, nm)
	ws := make([]*runner, pool.Workers())
	for i := range ws {
		ws[i] = r.newWorker(pool, len(drive)/len(ws)+1)
	}
	pool.Run(func(worker, m int) {
		ws[worker].runMorsel(pool, res, drive, m)
	})

	if len(p.order) == 0 {
		return r.mergePlain(res)
	}
	for m := range res {
		if res[m].err != nil {
			return res[m].err
		}
	}
	return r.mergeSorted(ws)
}

// newWorker returns the runner one pool worker drives morsels through: its
// own joined-row buffer over the coordinator's frozen sides, sinking into
// the serial path's plain sink. The sink puts its rows into the current
// morsel's buffer, without OFFSET/LIMIT (the merge windows the output),
// and stops once the pool cancels the morsel; its sorter presizes for its
// share of the driving rows, and under ORDER BY + DISTINCT it is
// unbounded, since bounding it before the cross-worker DISTINCT merge
// could evict rows that global deduplication would promote into the
// window.
func (r *runner) newWorker(pool *sched.Pool, share int) *runner {
	p := r.p
	w := &runner{p: p, row: make([]sqlval.Value, p.width), shared: r.shared, pool: pool, sides: r.sides}
	k := keep(p.limit, p.offset)
	if p.distinct {
		k = -1
	}
	s := newPlainSink(w, k, share)
	s.offset, s.limit = 0, -1
	w.sink = s
	return w
}

// runMorsel is the parallel driver: it feeds one morsel of materialised
// driving rows through feed, then records the morsel's first error.
func (r *runner) runMorsel(pool *sched.Pool, res []parMorsel, drive [][]sqlval.Value, m int) {
	lo, hi := sched.Bounds(m, parallelMorsel, len(drive))
	r.drivePos, r.dst, r.morsel = int64(lo), &res[m].rows, m
	for i := lo; i < hi && !pool.Cancelled(m) && r.feed(drive[i]); i++ {
	}
	if r.err != nil {
		res[m].err = r.err
		r.err = nil
		// Output past an error is discarded; stop fanning out beyond it.
		pool.Cut(m + 1)
	}
	pool.Done(m, len(res[m].rows))
}

// mergePlain replays the per-morsel buffers in morsel order through a
// fresh plain sink — global DISTINCT, OFFSET and LIMIT behave exactly as
// on the serial path, including rows buffered before a worker's error.
// The buffered rows are the workers' arena copies, so each row that passes
// is handed over to the Result as it is, into Rows presized for the
// OFFSET / LIMIT window of the merged total.
func (r *runner) mergePlain(res []parMorsel) error {
	total := 0
	for m := range res {
		total += len(res[m].rows)
	}
	*r.dst = make([][]sqlval.Value, 0, len(window(make([]struct{}, total), r.p.offset, r.p.limit)))
	tail := newPlainSink(r, -1, 0)
	for m := range res {
		for _, row := range res[m].rows {
			if tail.distinct.dup(row) {
				continue
			}
			if !tail.window(row) {
				return r.err
			}
		}
		if res[m].err != nil {
			return res[m].err
		}
	}
	return nil
}

// mergeSorted combines the per-worker sorters. Every row of the global
// window is among some worker's kept rows (a worker keeps at least as
// many as the whole plan), and (keys, stamp) is a strict total order, so
// selecting the window from the union of the workers' rows reproduces the
// serial stable sort, ties included. Without a LIMIT the workers' rows are
// sorted as runs concurrently and merged (exec.MergeSorted), skipping the
// OFFSET. Under DISTINCT the candidates are first deduplicated in
// arrival-stamp order — the order the serial sink deduplicates in, before
// it sorts.
func (r *runner) mergeSorted(ws []*runner) error {
	p := r.p
	n := len(p.items)
	runs := make([][]sortedRow, len(ws))
	total := 0
	for i, w := range ws {
		runs[i] = w.sink.(*plainSink).sorter.rows
		total += len(runs[i])
	}
	if p.limit < 0 && !p.distinct {
		skip := p.offset
		w := newWindowOut(max(total-max(skip, 0), 0), total, n)
		sched.MergeSorted(len(ws), runs, func(a, b sortedRow) int { return orderCmp(p.order, &a, &b) },
			func(sr sortedRow) bool {
				if skip > 0 {
					skip--
				} else {
					w.add(sr.row)
				}
				return true
			})
		*r.dst = w.rows
		return nil
	}
	if p.distinct {
		all := slices.Concat(runs...)
		slices.SortFunc(all, func(a, b sortedRow) int { return cmp.Compare(a.seq, b.seq) })
		d := distinctSet{seen: make(map[string]struct{}, len(all))}
		runs = [][]sortedRow{slices.DeleteFunc(all, func(sr sortedRow) bool { return d.dup(sr.row[:n]) })}
		total = len(runs[0])
	}
	r.putWindow(windowRuns(p.order, runs, p.offset, p.limit, len(ws)), total, n)
	return nil
}
