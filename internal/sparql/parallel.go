package sparql

// parallel.go — morsel-driven parallel evaluation of compiled plans. The
// head pattern of the root group (the first step of the activation's join
// order) is materialised once — an index probe streaming its (s, p, o) ID
// matches into a slice — and partitioned into fixed-size morsels in serial
// enumeration order. Workers claim morsel indexes from one atomic counter,
// so every morsel runs on exactly one worker, and each worker drives its
// own backtracking pipeline (private row, private group contexts) over its
// matches under the one shared read transaction. Rows are buffered per
// morsel; the coordinator replays the buffers in morsel order through the
// unchanged DISTINCT / OFFSET / LIMIT tail, or under ORDER BY appends them
// to the row arena and sorts once with the serial emitSorted. Either way
// the parallel result is exactly what the serial executor would produce
// given the same head enumeration.
//
// Property-path heads fan out too: the path step's (subject, object)
// frontier is materialised once on the coordinator — exactly the pair list
// the serial step would walk — and the morsels feed its pairs as (s, 0, o)
// matches through the same worker pipeline.
//
// Workers share the transaction's rdf.IDReader, whose methods are pure
// reads under the transaction lock. ASK queries (first match wins; nothing
// to fan out), LIMIT without ORDER BY (the serial pipeline stops at its
// rows) and small posting lists stay serial; every decline records its
// reason in exec.fallback, surfaced as Result.ParallelFallback /
// StreamInfo.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"crosse/internal/rdf"
)

// Tuning knobs. Variables rather than constants so the parity suite can
// force the parallel path on small fixtures.
var (
	// parMinMatches is the head-pattern cardinality below which the serial
	// pipeline runs instead.
	parMinMatches = 2048
	// parMorselMatches is the number of head matches per morsel.
	parMorselMatches = 512
)

// tryParallel evaluates the plan on the parallel path when it is
// eligible, reporting done=false to let the serial pipeline take over.
// The caller has already dispatched ASK and LIMIT-0 queries.
func (e *exec) tryParallel() bool {
	p := e.p
	workers := e.opts.Parallelism
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case workers <= 1:
		e.fallback = "parallelism=1"
		return false
	case e.limit >= 0 && len(p.order) == 0:
		e.fallback = "limit without order by"
		return false
	case len(e.row) == 0:
		e.fallback = "query binds no variables"
		return false
	case len(p.root.patterns) == 0:
		e.fallback = "no triple patterns"
		return false
	}

	// Activate the root group on the coordinator to learn the join order's
	// head pattern. Activation is deterministic given the empty row and the
	// frozen reader, so every worker reproduces it exactly; if we decline
	// below, the serial path simply re-activates.
	gs := &e.groups[p.root.id]
	e.activate(gs)
	for _, f := range gs.preFilters {
		if !e.filterPasses(f) {
			// A failed constant filter: the group emits nothing.
			return true
		}
	}
	head := gs.head
	if head == nil {
		e.fallback = "no driving pattern"
		return false
	}

	// Materialise the head step's matches. This fixes the enumeration
	// order the morsel-order replay then reproduces.
	var h headMatches
	if pp := head.pp; pp.path != nil {
		// Property-path head: materialise the path step's frontier — the
		// exact (subject, object) pair list the serial step walks — whose
		// pairs the morsels feed as (s, 0, o) matches, mirroring the serial
		// sc.match(pr[0], 0, pr[1]) calls.
		pat := headPattern(e, pp)
		buf := takePairs()
		h.pairs = e.pathPairs(*buf, pp.path, pat.S, pat.S != 0, pat.O, pat.O != 0)
		defer putPairs(buf, h.pairs)
		if len(h.pairs) < parMinMatches {
			e.fallback = "driving path frontier below parallel threshold"
			return false
		}
	} else {
		pat := headPattern(e, pp)
		if e.r.CountIDs(pat) < parMinMatches {
			e.fallback = "driving pattern below parallel threshold"
			return false
		}
		e.r.ForEachIDs(pat, func(s, pr, o rdf.TermID) bool {
			h.triples = append(h.triples, s, pr, o)
			return true
		})
	}

	nm := (h.len() + parMorselMatches - 1) / parMorselMatches
	res := make([][]rdf.TermID, nm)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, nm) {
		w := newParExec(e)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for m := int(next.Add(1) - 1); m < nm; m = int(next.Add(1) - 1) {
				res[m] = w.runMorsel(m, &h)
			}
		}()
	}
	wg.Wait()

	if len(p.order) > 0 {
		for _, rows := range res {
			e.arena = append(e.arena, rows...)
		}
		e.emitSorted()
		return true
	}
	ns := len(e.row)
	for _, rows := range res {
		for off := 0; off+ns <= len(rows); off += ns {
			if !e.emitFinal(rows[off : off+ns]) {
				return true
			}
		}
	}
	return true
}

// headPattern builds the head step's probe pattern against the empty row,
// mirroring stepCtx.run.
func headPattern(e *exec, pp *patternPlan) rdf.PatternIDs {
	var pat rdf.PatternIDs
	if pp.s.slot < 0 {
		pat.S = e.ids[pp.s.konst]
	}
	if pp.o.slot < 0 {
		pat.O = e.ids[pp.o.konst]
	}
	if pp.pred >= 0 {
		pat.P = e.ids[pp.pred]
	}
	return pat
}

// parExec is one worker's private executor: its own row, group contexts
// and scratch marks, sharing only the reader and the resolved constant
// table with the coordinator.
type parExec struct {
	e    *exec
	head *stepCtx
	buf  []rdf.TermID
	seen map[string]struct{} // worker-local DISTINCT pre-filter
}

func newParExec(parent *exec) *parExec {
	p := parent.p
	we := &exec{
		p:       p,
		r:       parent.r,
		opts:    parent.opts,
		ids:     parent.ids,
		extra:   parent.extra,
		row:     make([]rdf.TermID, len(p.slotNames)),
		boundEp: make([]uint32, len(p.slotNames)),
		groups:  make([]groupState, p.ngroups),
	}
	we.initGroup(p.root)
	w := &parExec{e: we}
	gs := &we.groups[p.root.id]
	gs.emit = w.collect
	we.activate(gs)
	w.head = gs.head
	if parent.distinct && len(p.order) == 0 {
		// Pre-sort deduplication is arrival-order-safe: a worker's morsel
		// sequence is strictly increasing, so a locally seen key was seen
		// at an earlier global position too. The coordinator's emitFinal
		// re-deduplicates across workers. Under ORDER BY the serial tail
		// deduplicates after sorting, so every row must survive to it.
		w.seen = map[string]struct{}{}
	}
	return w
}

// collect is the worker's emit hook: buffer a copy of the solution row.
func (w *parExec) collect() bool {
	row := w.e.row
	if w.seen != nil {
		key := w.e.projKey(row)
		if _, dup := w.seen[key]; dup {
			return true
		}
		w.seen[key] = struct{}{}
	}
	w.buf = append(w.buf, row...)
	return true
}

// headMatches is the head step's materialised matches: an index probe's
// (s, p, o) triples, flat, or a property path's (s, o) pairs.
type headMatches struct {
	triples []rdf.TermID
	pairs   [][2]rdf.TermID
}

func (h *headMatches) len() int {
	if h.pairs != nil {
		return len(h.pairs)
	}
	return len(h.triples) / 3
}

// runMorsel feeds morsel m of the head matches through the worker's
// pipeline, exactly as the head step's enumeration would have, and
// returns the rows it buffered.
func (w *parExec) runMorsel(m int, h *headMatches) []rdf.TermID {
	w.buf = nil
	lo := m * parMorselMatches
	hi := min(lo+parMorselMatches, h.len())
	if h.pairs != nil {
		for _, pr := range h.pairs[lo:hi] {
			w.head.match(pr[0], 0, pr[1])
		}
		return w.buf
	}
	for i := lo; i < hi; i++ {
		w.head.match(h.triples[3*i], h.triples[3*i+1], h.triples[3*i+2])
	}
	return w.buf
}
