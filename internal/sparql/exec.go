package sparql

// exec.go — the ID-native streaming executor. A compiled Plan evaluates as
// a push-based pipeline over []rdf.TermID rows: each BGP pattern step binds
// variable slots from an index probe and pushes the row to the next step
// (backtracking in place, so intermediate solutions are never materialised),
// OPTIONAL/UNION blocks transform the stream recursively, filters run at
// the first step where all their variables are bound, and terms are decoded
// only at projection. Early termination (ASK, LIMIT without ORDER BY,
// both of which always run here rather than on the parallel path)
// propagates as a stop signal back up the pipeline. ORDER BY materialises
// the rows and sorts them once (emitSorted), decoding each order key once.
//
// The whole query runs under a single rdf.Graph ReadIDs read transaction,
// so no per-probe locking happens on the join path.

import (
	"fmt"
	"slices"
	"sync"

	"crosse/internal/rdf"
)

// Eval parses, compiles and evaluates src against g.
func Eval(g rdf.Graph, src string) (*Result, error) {
	return EvalOpts(g, src, Options{})
}

// EvalOpts is Eval with evaluation options.
func EvalOpts(g rdf.Graph, src string, o Options) (*Result, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	p, err := Compile(q)
	if err != nil {
		return nil, err
	}
	return p.EvalOpts(g, o)
}

// Eval evaluates the compiled plan against g.
func (p *Plan) Eval(g rdf.Graph) (*Result, error) {
	return p.EvalOpts(g, Options{})
}

// EvalOpts evaluates the compiled plan against g with options, collecting
// the stream into map-based Bindings.
func (p *Plan) EvalOpts(g rdf.Graph, o Options) (*Result, error) {
	var out []Binding
	res := p.eval(g, o, func(s Solution) bool {
		out = append(out, s.e.projectBinding(s.row))
		return true
	})
	res.Bindings = out
	return res, nil
}

// eval runs the plan against g inside one read transaction, pushing each
// solution to fn.
func (p *Plan) eval(g rdf.Graph, o Options, fn func(Solution) bool) *Result {
	var res *Result
	g.ReadIDs(func(r rdf.IDReader) { res = p.run(r, o, fn) })
	return res
}

// Solution is one projected solution surfaced by Plan.Stream. It is valid
// only inside the streaming callback; the terms it decodes are plain values
// and safe to retain.
type Solution struct {
	e   *exec
	row []rdf.TermID
}

// Len returns the number of projected variables.
func (s Solution) Len() int { return len(s.e.p.vars) }

// Term returns the value of the i-th projected variable (the order of
// Plan.Vars), reporting false when it is unbound in this solution.
func (s Solution) Term(i int) (rdf.Term, bool) {
	id := s.row[s.e.p.projSlots[i]]
	if id == 0 {
		return rdf.Term{}, false
	}
	return s.e.termOf(id)
}

// Var returns the value of a projected variable by name, reporting false
// when the variable is not projected or unbound.
func (s Solution) Var(name string) (rdf.Term, bool) {
	i, ok := s.e.p.varIndex[name]
	if !ok {
		return rdf.Term{}, false
	}
	return s.Term(i)
}

// Stream evaluates a SELECT plan and pushes each solution to fn without
// materialising Binding maps — the allocation-free path internal/core's
// enrichment pipeline consumes. DISTINCT, ORDER BY, OFFSET and LIMIT are
// honoured exactly as in Eval; fn returning false stops evaluation early.
func (p *Plan) Stream(g rdf.Graph, fn func(Solution) bool) error {
	_, err := p.StreamInfoOpts(g, Options{}, fn)
	return err
}

// StreamInfo reports per-evaluation facts of a streaming run that are not
// part of the solution stream itself.
type StreamInfo struct {
	// ParallelFallback is empty when the query ran on the morsel-driven
	// parallel path and otherwise names why evaluation fell back to the
	// serial pipeline (see Result.ParallelFallback).
	ParallelFallback string
}

// StreamInfoOpts is Stream with evaluation options, returning evaluation
// metadata alongside the stream.
func (p *Plan) StreamInfoOpts(g rdf.Graph, o Options, fn func(Solution) bool) (StreamInfo, error) {
	if p.q.Form == Ask {
		return StreamInfo{}, fmt.Errorf("sparql: Stream requires a SELECT query")
	}
	return StreamInfo{ParallelFallback: p.eval(g, o, fn).ParallelFallback}, nil
}

// --- executor state ---

type exec struct {
	p    *Plan
	r    rdf.IDReader
	opts Options

	// ids resolves the plan's constant table against the target graph's
	// dictionary. Constants the graph has never interned get synthetic IDs
	// (allocated downward from the top of the ID space, far above any dense
	// dictionary ID) recorded in extra: index probes on them naturally match
	// nothing, while decoding and zero-length path semantics still work.
	ids   []rdf.TermID
	extra map[rdf.TermID]rdf.Term

	row    []rdf.TermID
	groups []groupState

	// boundEp/epoch implement clear-free "is this slot bound" scratch marks
	// for the per-activation join ordering and filter placement.
	boundEp []uint32
	epoch   uint32

	// result collection
	streamFn func(Solution) bool
	distinct bool
	seen     map[string]struct{}
	keyBuf   []byte
	skip     int
	limit    int
	count    int
	found    bool
	arena    []rdf.TermID // materialised rows for the ORDER BY path
	fallback string       // why the parallel path declined (see tryParallel)

	walks   []*closureWalk           // free property-path closure scratch (see walk)
	regexes map[string]compiledRegex // dynamic regex() sources compiled so far
}

type groupState struct {
	e          *exec
	gp         *groupPlan
	steps      []stepCtx
	otherCtxs  []otherCtx
	order      []*stepCtx
	head       *stepCtx
	chosen     []bool
	fdone      []bool
	preFilters []*filterPlan
	endFilters []*filterPlan
	emit       func() bool
}

// stepCtx is the per-pattern execution context. Its match callback and
// chain links are prepared once per exec (and relinked per activation), so
// the hot join loop allocates nothing.
type stepCtx struct {
	e                   *exec
	gs                  *groupState
	pp                  *patternPlan
	next                *stepCtx
	filters             []*filterPlan
	fn                  func(a, b, c rdf.TermID) bool
	sSlot, pSlot, oSlot int
	stopped             bool
}

type otherCtx struct {
	e       *exec
	gs      *groupState
	opt     *optionalPlan
	uni     *unionPlan
	next    *otherCtx
	matched bool
	onOptFn func() bool
	nextFn  func() bool
}

func (p *Plan) run(r rdf.IDReader, o Options, streamFn func(Solution) bool) *Result {
	e := &exec{
		p:       p,
		r:       r,
		opts:    o,
		row:     make([]rdf.TermID, len(p.slotNames)),
		boundEp: make([]uint32, len(p.slotNames)),
		groups:  make([]groupState, p.ngroups),
	}
	e.resolveConsts()
	e.initGroup(p.root)

	if p.q.Form == Ask {
		e.runGroup(p.root, e.collectAsk)
		// ASK stays serial by design: the first match wins, so there is
		// nothing to fan out.
		return &Result{Bool: e.found, ParallelFallback: "ask query"}
	}

	e.distinct = p.q.Distinct
	if e.distinct {
		e.seen = map[string]struct{}{}
	}
	e.skip = p.q.Offset
	e.limit = p.q.Limit
	e.streamFn = streamFn
	switch {
	case p.q.Limit == 0:
		e.fallback = "limit 0"
	case e.tryParallel():
		// Large head-pattern posting lists take the morsel-driven parallel
		// path (see parallel.go); the cases below are the serial pipeline.
	case len(p.order) == 0:
		e.runGroup(p.root, e.collect)
	default:
		e.runGroup(p.root, e.collectRow)
		e.emitSorted()
	}
	return &Result{Vars: p.vars, ParallelFallback: e.fallback}
}

// resolveConsts translates the plan's constant table to the target graph's
// IDs, assigning synthetic IDs to terms the graph has never seen.
func (e *exec) resolveConsts() {
	if len(e.p.consts) == 0 {
		return
	}
	e.ids = make([]rdf.TermID, len(e.p.consts))
	next := rdf.TermID(^uint32(0))
	for i, t := range e.p.consts {
		if id, ok := e.r.IDOf(t); ok {
			e.ids[i] = id
			continue
		}
		if e.extra == nil {
			e.extra = map[rdf.TermID]rdf.Term{}
		}
		e.ids[i] = next
		e.extra[next] = t
		next--
	}
}

func (e *exec) termOf(id rdf.TermID) (rdf.Term, bool) {
	if t, ok := e.r.TermOf(id); ok {
		return t, true
	}
	if e.extra != nil {
		t, ok := e.extra[id]
		return t, ok
	}
	return rdf.Term{}, false
}

// initGroup wires the static per-group execution contexts (one-time per
// evaluation; activations only relink them).
func (e *exec) initGroup(gp *groupPlan) {
	gs := &e.groups[gp.id]
	gs.e = e
	gs.gp = gp
	gs.steps = make([]stepCtx, len(gp.patterns))
	for i, pp := range gp.patterns {
		sc := &gs.steps[i]
		sc.e = e
		sc.gs = gs
		sc.pp = pp
		sc.sSlot = pp.s.slot
		sc.pSlot = pp.pvar
		sc.oSlot = pp.o.slot
		sc.fn = sc.match
	}
	gs.order = make([]*stepCtx, 0, len(gp.patterns))
	gs.chosen = make([]bool, len(gp.patterns))
	gs.fdone = make([]bool, len(gp.filters))
	gs.otherCtxs = make([]otherCtx, len(gp.others))
	for i, op := range gp.others {
		oc := &gs.otherCtxs[i]
		oc.e = e
		oc.gs = gs
		if i+1 < len(gp.others) {
			oc.next = &gs.otherCtxs[i+1]
		}
		oc.nextFn = oc.runNext
		switch o := op.(type) {
		case *optionalPlan:
			oc.opt = o
			oc.onOptFn = oc.optMatch
			e.initGroup(o.group)
		case *unionPlan:
			oc.uni = o
			e.initGroup(o.left)
			e.initGroup(o.right)
		}
	}
}

// runGroup activates the group for the current row and streams extended
// rows to emit. It reports false when a downstream sink stopped evaluation.
func (e *exec) runGroup(gp *groupPlan, emit func() bool) bool {
	gs := &e.groups[gp.id]
	gs.emit = emit
	e.activate(gs)
	for _, f := range gs.preFilters {
		if !e.filterPasses(f) {
			return true
		}
	}
	if gs.head != nil {
		return gs.head.run()
	}
	return gs.afterPatterns()
}

// activate picks the join order for the group's patterns given what the
// current row already binds (greedy selectivity-first, mirroring the
// engine's pre-compilation behaviour), links the step chain, and places
// each filter at the earliest point where all its variables are guaranteed
// bound: before any pattern (preFilters), after a join step, or — when some
// variable is only ever bound by OPTIONAL/UNION blocks, or never — after
// those blocks (endFilters), preserving group-scope FILTER semantics.
func (e *exec) activate(gs *groupState) {
	gp := gs.gp
	n := len(gp.patterns)
	gs.order = gs.order[:0]
	if n <= 1 {
		for i := 0; i < n; i++ {
			gs.order = append(gs.order, &gs.steps[i])
		}
	} else {
		e.epoch++
		ep := e.epoch
		for i := range gs.chosen {
			gs.chosen[i] = false
		}
		for len(gs.order) < n {
			best, bestCost := -1, int(^uint(0)>>1)
			for i := 0; i < n; i++ {
				if gs.chosen[i] {
					continue
				}
				if cost := e.estimate(gp.patterns[i], ep); cost < bestCost {
					best, bestCost = i, cost
				}
			}
			gs.chosen[best] = true
			gs.order = append(gs.order, &gs.steps[best])
			for _, s := range gp.patterns[best].varSlots {
				e.boundEp[s] = ep
			}
		}
	}
	for i, sc := range gs.order {
		if i+1 < len(gs.order) {
			sc.next = gs.order[i+1]
		} else {
			sc.next = nil
		}
		sc.filters = sc.filters[:0]
	}
	gs.head = nil
	if len(gs.order) > 0 {
		gs.head = gs.order[0]
	}

	gs.preFilters = gs.preFilters[:0]
	gs.endFilters = gs.endFilters[:0]
	if len(gp.filters) == 0 {
		return
	}
	e.epoch++
	ep := e.epoch
	for i := range gs.fdone {
		gs.fdone[i] = false
	}
	for fi, f := range gp.filters {
		if e.allBound(f.slots, ep) {
			gs.preFilters = append(gs.preFilters, f)
			gs.fdone[fi] = true
		}
	}
	for _, sc := range gs.order {
		for _, s := range sc.pp.varSlots {
			e.boundEp[s] = ep
		}
		for fi, f := range gp.filters {
			if !gs.fdone[fi] && e.allBound(f.slots, ep) {
				sc.filters = append(sc.filters, f)
				gs.fdone[fi] = true
			}
		}
	}
	for fi, f := range gp.filters {
		if !gs.fdone[fi] {
			gs.endFilters = append(gs.endFilters, f)
		}
	}
}

func (e *exec) allBound(slots []int, ep uint32) bool {
	for _, s := range slots {
		if e.row[s] == 0 && e.boundEp[s] != ep {
			return false
		}
	}
	return true
}

// estimate guesses a pattern's cardinality for join ordering: constants and
// row-bound variables are bound in the store's exact count; variables
// bound by already-ordered patterns get the seed engine's /2+1 discount. A property
// path whose every pair begins with one plain IRI step (leadIRI) is priced
// as that step from the path's subject; the path's object is not that
// step's object, so its binding is left out.
func (e *exec) estimate(pp *patternPlan, ep uint32) int {
	var pat rdf.PatternIDs
	sVar, oVar := false, false
	if pp.s.slot >= 0 {
		if id := e.row[pp.s.slot]; id != 0 {
			pat.S = id
		} else if e.boundEp[pp.s.slot] == ep {
			sVar = true
		}
	} else {
		pat.S = e.ids[pp.s.konst]
	}
	if pp.o.slot >= 0 {
		if id := e.row[pp.o.slot]; id != 0 {
			pat.O = id
		} else if e.boundEp[pp.o.slot] == ep {
			oVar = true
		}
	} else {
		pat.O = e.ids[pp.o.konst]
	}
	if pp.pred >= 0 {
		pat.P = e.ids[pp.pred]
	} else if pp.pvar >= 0 {
		pat.P = e.row[pp.pvar]
	} else if k, ok := leadIRI(pp.path); ok {
		pat.P, pat.O, oVar = e.ids[k], 0, false
	}
	c := e.r.CountIDs(pat)
	if sVar && c > 1 {
		c = c/2 + 1
	}
	if oVar && c > 1 {
		c = c/2 + 1
	}
	return c
}

// leadIRI reports the plain IRI step every pair of path p begins with: p
// itself when it is an IRI, the left side of a sequence, or the body of a
// closure that takes at least one step.
func leadIRI(p pathPlan) (int, bool) {
	switch p := p.(type) {
	case pIRI:
		return p.konst, true
	case pSeq:
		return leadIRI(p.l)
	case pClosure:
		if p.min >= 1 {
			return leadIRI(p.p)
		}
	}
	return 0, false
}

func (gs *groupState) afterPatterns() bool {
	if len(gs.otherCtxs) > 0 {
		return gs.otherCtxs[0].run()
	}
	return gs.finish()
}

func (gs *groupState) finish() bool {
	for _, f := range gs.endFilters {
		if !gs.e.filterPasses(f) {
			return true
		}
	}
	return gs.emit()
}

// run streams the pattern's matches for the current row. Plain (IRI or
// variable) predicates stream directly from an index probe; complex
// property paths materialise their (subject, object) ID pairs first.
func (sc *stepCtx) run() bool {
	e := sc.e
	pp := sc.pp
	var pat rdf.PatternIDs
	if pp.s.slot >= 0 {
		pat.S = e.row[pp.s.slot]
	} else {
		pat.S = e.ids[pp.s.konst]
	}
	if pp.o.slot >= 0 {
		pat.O = e.row[pp.o.slot]
	} else {
		pat.O = e.ids[pp.o.konst]
	}
	if pp.path != nil {
		buf := takePairs()
		prs := e.pathPairs(*buf, pp.path, pat.S, pat.S != 0, pat.O, pat.O != 0)
		ok := true
		for _, pr := range prs {
			if ok = sc.match(pr[0], 0, pr[1]); !ok {
				break
			}
		}
		putPairs(buf, prs)
		return ok
	}
	if pp.pred >= 0 {
		pat.P = e.ids[pp.pred]
	} else {
		pat.P = e.row[pp.pvar]
	}
	sc.stopped = false
	e.r.ForEachIDs(pat, sc.fn)
	return !sc.stopped
}

// match binds the matched IDs into the row (checking consistency for slots
// bound earlier, including duplicate variables within one pattern), pushes
// the row downstream, and backtracks. Returning false stops the enclosing
// index enumeration — that happens only when a sink stopped evaluation, and
// sc.stopped records the distinction from simply filtering the row out.
func (sc *stepCtx) match(ms, mp, mo rdf.TermID) bool {
	row := sc.e.row
	u0, u1, u2 := -1, -1, -1
	if s := sc.sSlot; s >= 0 {
		if row[s] == 0 {
			row[s] = ms
			u0 = s
		} else if row[s] != ms {
			return true
		}
	}
	if s := sc.pSlot; s >= 0 {
		if row[s] == 0 {
			row[s] = mp
			u1 = s
		} else if row[s] != mp {
			if u0 >= 0 {
				row[u0] = 0
			}
			return true
		}
	}
	if s := sc.oSlot; s >= 0 {
		if row[s] == 0 {
			row[s] = mo
			u2 = s
		} else if row[s] != mo {
			if u1 >= 0 {
				row[u1] = 0
			}
			if u0 >= 0 {
				row[u0] = 0
			}
			return true
		}
	}
	ok := sc.advance()
	if u2 >= 0 {
		row[u2] = 0
	}
	if u1 >= 0 {
		row[u1] = 0
	}
	if u0 >= 0 {
		row[u0] = 0
	}
	if !ok {
		sc.stopped = true
	}
	return ok
}

func (sc *stepCtx) advance() bool {
	for _, f := range sc.filters {
		if !sc.e.filterPasses(f) {
			return true
		}
	}
	if sc.next != nil {
		return sc.next.run()
	}
	return sc.gs.afterPatterns()
}

func (oc *otherCtx) run() bool {
	if oc.opt != nil {
		oc.matched = false
		if !oc.e.runGroup(oc.opt.group, oc.onOptFn) {
			return false
		}
		if !oc.matched {
			return oc.runNext()
		}
		return true
	}
	if !oc.e.runGroup(oc.uni.left, oc.nextFn) {
		return false
	}
	return oc.e.runGroup(oc.uni.right, oc.nextFn)
}

func (oc *otherCtx) optMatch() bool {
	oc.matched = true
	return oc.runNext()
}

func (oc *otherCtx) runNext() bool {
	if oc.next != nil {
		return oc.next.run()
	}
	return oc.gs.finish()
}

// --- result collection ---

func (e *exec) collectAsk() bool {
	e.found = true
	return false
}

func (e *exec) collect() bool { return e.emitFinal(e.row) }

func (e *exec) collectRow() bool {
	e.arena = append(e.arena, e.row...)
	return true
}

// emitFinal applies DISTINCT / OFFSET / LIMIT to one solution row and hands
// it to the stream callback. It reports false when evaluation should stop
// (LIMIT reached or the stream consumer quit).
func (e *exec) emitFinal(row []rdf.TermID) bool {
	if e.distinct {
		key := e.projKey(row)
		if _, dup := e.seen[key]; dup {
			return true
		}
		e.seen[key] = struct{}{}
	}
	if e.skip > 0 {
		e.skip--
		return true
	}
	if !e.streamFn(Solution{e: e, row: row}) {
		return false
	}
	e.count++
	return e.limit < 0 || e.count < e.limit
}

// emitSorted orders the materialised rows by the plan's ORDER BY keys
// (unbound-first, numeric-aware) and replays them through emitFinal. Each
// row's keys are decoded once, then one sort runs over row indexes. A
// full-row ID comparison is the final tiebreak: it makes the sort a total
// order, so ORDER BY output — and any OFFSET/LIMIT window over it — is
// deterministic, independent of index map iteration order and identical
// between the serial and parallel paths, which both sort here.
func (e *exec) emitSorted() {
	// Every order key has a slot, so rows are never empty.
	rows, ns, order := e.arena, len(e.row), e.p.order
	n, nk := len(rows)/ns, len(order)
	keys := make([]sortKey, n*nk)
	idx := make([]int32, n)
	for r := range idx {
		idx[r] = int32(r)
		for j, k := range order {
			// An unbound slot (ID 0) decodes to the zero term.
			t, _ := e.termOf(rows[r*ns+k.slot])
			keys[r*nk+j] = keyOf(t)
		}
	}
	slices.SortFunc(idx, func(a, b int32) int {
		ka, kb := keys[int(a)*nk:], keys[int(b)*nk:]
		for j, k := range order {
			if c := compareKeys(ka[j], kb[j]); c != 0 {
				if k.desc {
					return -c
				}
				return c
			}
		}
		return slices.Compare(rows[int(a)*ns:int(a+1)*ns], rows[int(b)*ns:int(b+1)*ns])
	})
	for _, r := range idx {
		if !e.emitFinal(rows[int(r)*ns : int(r+1)*ns]) {
			return
		}
	}
}

// projKey builds the DISTINCT deduplication key from the projected slots'
// IDs — fixed-width ID tuples, no term rendering.
func (e *exec) projKey(row []rdf.TermID) string {
	buf := e.keyBuf[:0]
	for _, s := range e.p.projSlots {
		id := row[s]
		buf = append(buf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	e.keyBuf = buf
	return string(buf)
}

// projectBinding decodes the projected slots of a row into the public
// map-based Binding form.
func (e *exec) projectBinding(row []rdf.TermID) Binding {
	b := make(Binding, len(e.p.vars))
	for i, v := range e.p.vars {
		if id := row[e.p.projSlots[i]]; id != 0 {
			if t, ok := e.termOf(id); ok {
				b[v] = t
			}
		}
	}
	return b
}

// --- FILTER evaluation over rows ---

func (e *exec) filterPasses(f *filterPlan) bool {
	ok, err := truth(f.e, e)
	return err == nil && ok
}

// truth is x's effective boolean value, isTrue(x.eval(e)), read straight
// off REGEX, ! and BOUND without building a boolean term; err is x.eval's
// error.
func truth(x fexpr, e *exec) (bool, error) {
	switch x := x.(type) {
	case fRegex:
		s, err := lexical(x.arg, e)
		return err == nil && x.m.match(s), err
	case fNot:
		ok, err := truth(x.e, e)
		return err == nil && !ok, err
	case fBound:
		return e.row[x.slot] != 0, nil
	}
	v, err := x.eval(e)
	return err == nil && isTrue(v), err
}

// lexical is the lexical form of x's value, x.eval(e).Value, read without
// building a term where x is a variable, STR() or a constant: a literal's
// lexical form, an IRI's string, a blank node's label. An unbound
// variable is errUnbound, as in eval.
func lexical(x fexpr, e *exec) (string, error) {
	switch x := x.(type) {
	case fSlot:
		t, err := x.eval(e)
		return t.Value, err
	case fStr:
		return lexical(x.e, e)
	case fLit:
		return x.t.Value, nil
	}
	t, err := x.eval(e)
	return t.Value, err
}

func (x fLit) eval(e *exec) (rdf.Term, error) { return x.t, nil }

func (x fSlot) eval(e *exec) (rdf.Term, error) {
	id := e.row[x.slot]
	if id == 0 {
		return rdf.Term{}, errUnbound
	}
	t, ok := e.termOf(id)
	if !ok {
		return rdf.Term{}, errUnbound
	}
	return t, nil
}

func (x fNot) eval(e *exec) (rdf.Term, error) {
	ok, err := truth(x, e)
	if err != nil {
		return rdf.Term{}, err
	}
	return boolTerm(ok), nil
}

func (x fBound) eval(e *exec) (rdf.Term, error) {
	return boolTerm(e.row[x.slot] != 0), nil
}

func (x fStr) eval(e *exec) (rdf.Term, error) {
	s, err := lexical(x.e, e)
	if err != nil {
		return rdf.Term{}, err
	}
	return rdf.NewLiteral(s), nil
}

func (x fIsIRI) eval(e *exec) (rdf.Term, error) {
	t, err := x.e.eval(e)
	if err != nil {
		return rdf.Term{}, err
	}
	return boolTerm(t.IsIRI()), nil
}

func (x fIsLit) eval(e *exec) (rdf.Term, error) {
	t, err := x.e.eval(e)
	if err != nil {
		return rdf.Term{}, err
	}
	return boolTerm(t.IsLiteral()), nil
}

func (x fRegex) eval(e *exec) (rdf.Term, error) {
	ok, err := truth(x, e)
	if err != nil {
		return rdf.Term{}, err
	}
	return boolTerm(ok), nil
}

func (x fDynRegex) eval(e *exec) (rdf.Term, error) {
	s, err := lexical(x.arg, e)
	if err != nil {
		return rdf.Term{}, err
	}
	p, err := x.pat.eval(e)
	if err != nil {
		return rdf.Term{}, err
	}
	var flags string
	if x.flags != nil {
		f, err := x.flags.eval(e)
		if err != nil {
			return rdf.Term{}, err
		}
		flags = f.Value
	}
	m, err := e.regex(regexSource(p.Value, flags))
	if err != nil {
		return rdf.Term{}, err
	}
	return boolTerm(m.match(s)), nil
}

// regex returns the compiled matcher of a dynamic regex() source,
// compiling it once per evaluation; a bad pattern's error is memoised too.
func (e *exec) regex(src string) (*regexMatcher, error) {
	c, ok := e.regexes[src]
	if !ok {
		c.m, c.err = compileRegex(src)
		if e.regexes == nil {
			e.regexes = map[string]compiledRegex{}
		}
		e.regexes[src] = c
	}
	return c.m, c.err
}

// compiledRegex is one memoised compileRegex outcome.
type compiledRegex struct {
	m   *regexMatcher
	err error
}

func (x fErr) eval(e *exec) (rdf.Term, error) { return rdf.Term{}, x.err }

// eval implements the seed engine's non-3VL AND/OR semantics: an error on
// one side propagates unless the other side decides the outcome.
func (x fBinary) eval(e *exec) (rdf.Term, error) {
	switch x.op {
	case OpAnd, OpOr:
		l, lerr := x.l.eval(e)
		r, rerr := x.r.eval(e)
		if x.op == OpAnd {
			if lerr == nil && !isTrue(l) || rerr == nil && !isTrue(r) {
				return boolTerm(false), nil
			}
			if lerr != nil {
				return rdf.Term{}, lerr
			}
			if rerr != nil {
				return rdf.Term{}, rerr
			}
			return boolTerm(true), nil
		}
		if lerr == nil && isTrue(l) || rerr == nil && isTrue(r) {
			return boolTerm(true), nil
		}
		if lerr != nil {
			return rdf.Term{}, lerr
		}
		if rerr != nil {
			return rdf.Term{}, rerr
		}
		return boolTerm(false), nil
	}
	l, err := x.l.eval(e)
	if err != nil {
		return rdf.Term{}, err
	}
	r, err := x.r.eval(e)
	if err != nil {
		return rdf.Term{}, err
	}
	c := compareTerms(l, r)
	switch x.op {
	case OpEq:
		return boolTerm(c == 0), nil
	case OpNe:
		return boolTerm(c != 0), nil
	case OpLt:
		return boolTerm(c < 0), nil
	case OpLe:
		return boolTerm(c <= 0), nil
	case OpGt:
		return boolTerm(c > 0), nil
	case OpGe:
		return boolTerm(c >= 0), nil
	}
	return rdf.Term{}, fmt.Errorf("sparql: unknown operator %v", x.op)
}

// --- property paths over IDs ---

// pathPairs appends to out the (subject, object) ID pairs connected by a
// complex property path, mirroring the term-level evaluator's semantics
// (including per-operator pair deduplication and zero-length closure
// matches) on dictionary IDs.
func (e *exec) pathPairs(out [][2]rdf.TermID, p pathPlan, s rdf.TermID, sBound bool, o rdf.TermID, oBound bool) [][2]rdf.TermID {
	switch pp := p.(type) {
	case pIRI:
		pat := rdf.PatternIDs{P: e.ids[pp.konst]}
		if sBound {
			pat.S = s
		}
		if oBound {
			pat.O = o
		}
		e.r.ForEachIDs(pat, func(ms, _, mo rdf.TermID) bool {
			out = append(out, [2]rdf.TermID{ms, mo})
			return true
		})
		return out
	case pVarStep:
		pat := rdf.PatternIDs{}
		if sBound {
			pat.S = s
		}
		if oBound {
			pat.O = o
		}
		e.r.ForEachIDs(pat, func(ms, _, mo rdf.TermID) bool {
			out = append(out, [2]rdf.TermID{ms, mo})
			return true
		})
		return out
	case pInv:
		n := len(out)
		out = e.pathPairs(out, pp.p, o, oBound, s, sBound)
		swapPairs(out[n:])
		return out
	case pSeq:
		seen := map[[2]rdf.TermID]struct{}{}
		for _, lp := range e.pathPairs(nil, pp.l, s, sBound, 0, false) {
			for _, rp := range e.pathPairs(nil, pp.r, lp[1], true, o, oBound) {
				pair := [2]rdf.TermID{lp[0], rp[1]}
				if _, dup := seen[pair]; !dup {
					seen[pair] = struct{}{}
					out = append(out, pair)
				}
			}
		}
		return out
	case pAlt:
		n := len(out)
		out = e.pathPairs(out, pp.l, s, sBound, o, oBound)
		seen := map[[2]rdf.TermID]struct{}{}
		for _, pr := range out[n:] {
			seen[pr] = struct{}{}
		}
		for _, pr := range e.pathPairs(nil, pp.r, s, sBound, o, oBound) {
			if _, dup := seen[pr]; !dup {
				out = append(out, pr)
			}
		}
		return out
	case pClosure:
		return e.closurePairs(out, pp, s, sBound, o, oBound)
	default:
		return out
	}
}

// pairPool recycles the buffers a path step's pairs are materialised in
// (takePairs): the step reads them once and nothing keeps them after. A
// pooled buffer lives until the next garbage collection.
var pairPool sync.Pool // of *[][2]rdf.TermID

// takePairs returns an empty pooled pair buffer.
func takePairs() *[][2]rdf.TermID {
	if buf, _ := pairPool.Get().(*[][2]rdf.TermID); buf != nil {
		return buf
	}
	return new([][2]rdf.TermID)
}

// putPairs pools prs, the pairs last appended to buf, once read.
func putPairs(buf *[][2]rdf.TermID, prs [][2]rdf.TermID) {
	*buf = prs[:0]
	pairPool.Put(buf)
}

func swapPairs(prs [][2]rdf.TermID) {
	for i := range prs {
		prs[i][0], prs[i][1] = prs[i][1], prs[i][0]
	}
}

// closurePairs appends to out the pairs of p+, p*, p? (SPARQL 1.1 §18.5,
// ALP), found by breadth-first walks over IDs. Each walk emits its
// start's reachable nodes in discovery order; a node is first discovered
// at its shortest depth.
func (e *exec) closurePairs(out [][2]rdf.TermID, pc pClosure, s rdf.TermID, sBound bool, o rdf.TermID, oBound bool) [][2]rdf.TermID {
	switch {
	case sBound:
		var target rdf.TermID
		if oBound {
			target = o
		}
		return e.walk(pc, s, target, out)
	case oBound:
		n := len(out)
		out = e.walk(pClosure{p: pInv{p: pc.p}, min: pc.min, max: pc.max}, o, 0, out)
		swapPairs(out[n:])
		return out
	default:
		// Both ends open: walk from every node of the view, subjects and
		// objects alike, so zero-length matches pair each with itself.
		w := e.takeWalk()
		var nodes []rdf.TermID
		e.r.ForEachIDs(rdf.PatternIDs{}, func(ms, _, mo rdf.TermID) bool {
			if w.seen.add(ms) {
				nodes = append(nodes, ms)
			}
			if w.seen.add(mo) {
				nodes = append(nodes, mo)
			}
			return true
		})
		e.putWalk(w)
		for _, n := range nodes {
			out = e.walk(pc, n, 0, out)
		}
		return out
	}
}

// walk appends to out the pairs (start, n) for every node n the closure
// reaches from start, or only for n = target when target is non-zero.
func (e *exec) walk(pc pClosure, start, target rdf.TermID, out [][2]rdf.TermID) [][2]rdf.TermID {
	w := e.takeWalk()
	w.start, w.target, w.out, w.depth, w.min = start, target, out, 0, pc.min
	// The start is the one node that may carry a synthetic ID, which must
	// never index the bitset, so startSeen tracks it instead. A p+ walk
	// leaves it unseen: only a cycle back to it emits it.
	w.startSeen = pc.min == 0
	if w.startSeen {
		w.emit(start)
	}
	konst, inverse, plain := plainStep(pc.p)
	pat := rdf.PatternIDs{}
	visit := w.viaObject
	if plain {
		pat.P = e.ids[konst]
		if inverse {
			visit = w.viaSubject
		}
	}
	w.frontier = append(w.frontier[:0], start)
	for len(w.frontier) > 0 && (pc.max < 0 || w.depth < pc.max) {
		w.depth++
		w.next = w.next[:0]
		for _, n := range w.frontier {
			if plain {
				if inverse {
					pat.O = n
				} else {
					pat.S = n
				}
				e.r.ForEachIDs(pat, visit)
			} else {
				for _, pr := range e.pathPairs(nil, pc.p, n, true, 0, false) {
					w.discover(pr[1])
				}
			}
		}
		w.frontier, w.next = w.next, w.frontier
	}
	out = w.out
	e.putWalk(w)
	return out
}

// plainStep reports whether a closure's step is an IRI under any number of
// inversions, whose neighbours stream straight from one index probe.
func plainStep(p pathPlan) (konst int, inverse, ok bool) {
	for {
		switch pp := p.(type) {
		case pIRI:
			return pp.konst, inverse, true
		case pInv:
			inverse, p = !inverse, pp.p
		default:
			return 0, false, false
		}
	}
}

// closureWalk is the scratch of one breadth-first closure walk. An exec
// keeps a free list of them (takeWalk/putWalk) because a closure's step may
// itself hold a closure, whose walk runs while the outer one is open; the
// neighbour callbacks are bound once per scratch, so a walk allocates
// nothing per node.
type closureWalk struct {
	seen           nodeSet
	frontier, next []rdf.TermID
	out            [][2]rdf.TermID
	start, target  rdf.TermID
	depth, min     int
	startSeen      bool
	viaObject      func(s, p, o rdf.TermID) bool
	viaSubject     func(s, p, o rdf.TermID) bool
}

func (e *exec) takeWalk() *closureWalk {
	if n := len(e.walks); n > 0 {
		w := e.walks[n-1]
		e.walks = e.walks[:n-1]
		return w
	}
	w := &closureWalk{}
	w.viaObject = func(_, _, o rdf.TermID) bool { w.discover(o); return true }
	w.viaSubject = func(s, _, _ rdf.TermID) bool { w.discover(s); return true }
	return w
}

func (e *exec) putWalk(w *closureWalk) {
	w.seen.clear()
	w.out = nil
	e.walks = append(e.walks, w)
}

// discover records n as reached at the current depth.
func (w *closureWalk) discover(n rdf.TermID) {
	if n == w.start {
		if w.startSeen {
			return
		}
		w.startSeen = true
	} else if !w.seen.add(n) {
		return
	}
	w.next = append(w.next, n)
	if w.depth >= w.min {
		w.emit(n)
	}
}

func (w *closureWalk) emit(n rdf.TermID) {
	if w.target == 0 || n == w.target {
		w.out = append(w.out, [2]rdf.TermID{w.start, n})
	}
}

// nodeSet is a dense bitset over dictionary IDs. It grows to the largest
// ID it holds and is cleared through the list of words it dirtied, so one
// set serves every walk of an exec without reallocating.
type nodeSet struct {
	words []uint64
	dirty []uint32
}

// add inserts id, reporting whether it was new.
func (ns *nodeSet) add(id rdf.TermID) bool {
	w := int(id >> 6)
	if w >= len(ns.words) {
		ns.words = append(ns.words, make([]uint64, w+1-len(ns.words))...)
	}
	bit := uint64(1) << (id & 63)
	old := ns.words[w]
	if old&bit != 0 {
		return false
	}
	if old == 0 {
		ns.dirty = append(ns.dirty, uint32(w))
	}
	ns.words[w] = old | bit
	return true
}

func (ns *nodeSet) clear() {
	for _, w := range ns.dirty {
		ns.words[w] = 0
	}
	ns.dirty = ns.dirty[:0]
}
