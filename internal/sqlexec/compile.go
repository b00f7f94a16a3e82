package sqlexec

// compile.go — the SQL compile layer. CompileOpts lowers a parsed SELECT
// once into an immutable physical SelectPlan, mirroring what
// internal/sparql's Compile does for SPARQL:
//
//   - every column reference resolves to a dense row-slot offset at compile
//     time (execution never matches column names per row);
//   - expressions lower to slot-resolved evaluator trees (cexpr) with
//     constant LIKE patterns pre-compiled to segment matchers;
//   - WHERE splits into conjuncts, each bound to the earliest pipeline step
//     whose sources cover its slots (source-local conjuncts run inside the
//     scan, equality-against-constant conjuncts on indexed or foreign
//     columns push into sqldb ScanEq index seeks, and a foreign scan's
//     leading `col op constant` filters also travel to its source as a
//     pre-filter, sqldb.PrefilterRelation);
//   - equi-joins become hash joins (the executor picks the build side from
//     live cardinalities, and may run the first join as an index probe of
//     its inner side instead, see run.go), other joins nested loops over a
//     materialised right side;
//   - ORDER BY keys lower to slots of the buffered output row — the
//     projected column a key is, or a hidden slot past the projection —
//     and ORDER BY + LIMIT to a buffer bounded by selection (order.go).
//
// A SelectPlan holds structure only — relation handles, slots, compiled
// expressions — never row data, so one plan is safe for concurrent
// execution. Plans bind to the catalog's schema at compile time;
// internal/core's QueryCache keys cached plans on the query's shape and
// checks sqldb.Database.SchemaEpoch at hit time, so any DDL invalidates
// them while data mutations never do. A plan compiled from a shape holds
// slots for its literals; Bind (bind.go) fills them per execution.

import (
	"fmt"
	"slices"
	"strings"

	"crosse/internal/sqldb"
	"crosse/internal/sqlparser"
	"crosse/internal/sqlval"
)

// Options tunes SELECT execution. The zero value is the production
// default. No field selects a plan: each query compiles to one, and
// every plan runs on the one serial driver in run.go.
type Options struct {
	// PartialResults degrades instead of failing when a scanned source is
	// down before producing any row (sqldb.ErrSourceDown — an open FDW
	// circuit breaker): the source contributes zero rows and is named in
	// Result.SkippedSources. Off by default:
	// a down source fails the query fast with a typed error.
	PartialResults bool
}

// SelectPlan is a compiled, immutable physical form of a SELECT. It is
// safe for concurrent execution: all per-execution state lives in the
// runner (see run.go).
type SelectPlan struct {
	opts    Options
	headers []string

	fromless bool

	width int // joined-row width (sum of source widths)
	scan0 scanPlan
	joins []joinPlan

	// Projection (plain mode) or group machinery (grouped mode).
	grouped bool
	items   []cexpr // plain/fromless: over joined row; grouped: over ext row
	group   *groupSink

	distinct  bool
	order     []orderPlan
	sortWidth int // buffered output row: projected columns, then hidden ORDER BY keys
	limit     int // -1 = absent
	offset    int // -1 = absent

	under *compileEnv // the row ORDER BY keys fall back to (see setTail)
}

// Columns returns the output column headers.
func (p *SelectPlan) Columns() []string {
	return append([]string(nil), p.headers...)
}

// scanPlan is one base relation instance in the pipeline.
type scanPlan struct {
	rel    sqldb.Relation
	offset int // slot offset of this source's first column
	width  int

	// Equality pushdown: scan only rows where eqCol = eqVal, via
	// sqldb.FilteredRelation (hash-index seek locally, remote predicate
	// pushdown over FDW).
	eqCol string
	eqVal sqlval.Value
	// eqParam is the slot whose bound value becomes eqVal (Bind), or -1
	// when eqVal is the query's own literal.
	eqParam int

	// filters are WHERE/ON conjuncts referencing only this source's
	// slots, compiled against the source's own row (slot 0 is the
	// source's first column) so they run on the scanned row before it is
	// copied into the joined-row buffer. Never populated for the right
	// side of a LEFT JOIN from WHERE conjuncts (those stay post-join to
	// preserve padding semantics); ON conjuncts are safe there.
	filters []pred

	// where repeats the leading filters of the form `col op constant` for
	// a sqldb.PrefilterRelation, which drops rows they reject before the
	// rows travel (tryPushCmp); the filters still run on every row that
	// arrives. whereParam[i] is the slot whose bound value becomes
	// where[i].Val (Bind), or -1.
	where      []sqldb.Comparison
	whereParam []int
}

type joinKind int

const (
	joinHash joinKind = iota
	joinHashLeft
	joinNested
	joinNestedLeft
	joinCross
)

// joinPlan joins the accumulated left pipeline with one right source.
type joinPlan struct {
	src  scanPlan
	kind joinKind

	leftSlot, rightSlot int // hash-join key slots (absolute), hash kinds only

	// residual: remaining ON conjuncts, evaluated per candidate pair
	// before the pair counts as matched (LEFT padding decided after).
	residual []pred
	// post: WHERE conjuncts that first become evaluable after this join,
	// applied to joined (and padded) rows.
	post []pred
}

// orderPlan is one compiled ORDER BY key. Each key evaluates against the
// projected row first and falls back to the underlying row per row on
// ANY evaluation error (not just unresolved names), so the plan keeps
// both compilations when both resolve; at least one is non-nil. at is the
// key's slot in the buffered output row (placeKeys).
type orderPlan struct {
	outKey   cexpr // against the projected row; nil if it doesn't resolve
	underKey cexpr // against the underlying row; nil if it doesn't resolve
	desc     bool
	at       int
}

// placeKeys gives each ORDER BY key its slot in the buffered output row
// and returns that row's width. A key that is a plain column reference —
// outKey a slot of the n projected columns, or, when it does not resolve
// there, underKey a slot that some item projects unchanged — reads that
// column, since a slot cannot error and so never falls back. Every other
// key gets a hidden slot past the projection, evaluated per row.
func placeKeys(order []orderPlan, items []cexpr, n int) int {
	w := n
	for k := range order {
		op := &order[k]
		if s, ok := op.outKey.(cSlot); ok {
			op.at = s.slot
			continue
		}
		if s, ok := op.underKey.(cSlot); ok && op.outKey == nil {
			if j := slices.IndexFunc(items, func(it cexpr) bool { t, ok := it.(cSlot); return ok && t == s }); j >= 0 {
				op.at = j
				continue
			}
		}
		op.at = w
		w++
	}
	return w
}

// groupSink is the compiled GROUP BY / aggregate machinery. Items and
// HAVING evaluate over an "ext row": the group's first joined row extended
// with one slot per distinct aggregate call.
type groupSink struct {
	keys   []cexpr   // GROUP BY expressions over the joined row
	aggs   []aggSpec // distinct aggregate calls (by rendered SQL)
	having cexpr     // over ext row; nil when absent
}

type aggSpec struct {
	fc  *sqlparser.FuncCall
	arg cexpr // nil for COUNT(*)
}

// Compile lowers a parsed SELECT into a physical plan with default
// options.
func Compile(db *sqldb.Database, sel *sqlparser.Select) (*SelectPlan, error) {
	return CompileOpts(db, sel, Options{})
}

// CompileOpts lowers a parsed SELECT into a physical plan.
func CompileOpts(db *sqldb.Database, sel *sqlparser.Select, opts Options) (*SelectPlan, error) {
	c := &selCompiler{db: db, sel: sel, opts: opts}
	return c.compile()
}

// --- SELECT compilation ---

type selCompiler struct {
	db   *sqldb.Database
	sel  *sqlparser.Select
	opts Options

	sources []scanPlan
	kinds   []sqlparser.JoinKind
	ons     []sqlparser.Expr
	isOuter []bool // source i is the right side of a LEFT JOIN

	layout []ScopeCol // full joined layout; slot = index
}

// conjInfo is one WHERE conjunct with its placement analysis. Resolution
// follows the earliest-prefix rule: the conjunct binds to the first
// pipeline step whose accumulated layout resolves every reference
// uniquely — so an unqualified name that is ambiguous in the full join
// layout but unique over the first k sources resolves there.
type conjInfo struct {
	e        sqlparser.Expr
	step     int   // earliest step whose prefix layout resolves it; -1 = never
	ce       cexpr // compiled against that prefix
	srcOnly  int   // -1, or the single source region containing every ref
	consumed bool  // pushed into a seek or claimed as a hash-join key
	// badRef records the full-layout resolution error of a conjunct no
	// prefix resolves. It can still be claimed as a region-resolved
	// hash-join key at a cross join, each side resolving within its own
	// sources; if nothing claims it, compilation fails with this error.
	badRef error
}

func (c *selCompiler) compile() (*SelectPlan, error) {
	sel := c.sel
	p := &SelectPlan{opts: c.opts, limit: -1, offset: -1}

	// FROM-less SELECT: items evaluate once against an empty scope;
	// DISTINCT/ORDER/LIMIT do not apply.
	if len(sel.From) == 0 {
		p.fromless = true
		env := &compileEnv{}
		for i, it := range sel.Items {
			if it.Star {
				return nil, fmt.Errorf("sqlexec: SELECT * requires a FROM clause")
			}
			ce, err := compileExpr(it.Expr, env)
			if err != nil {
				return nil, err
			}
			p.items = append(p.items, ce)
			p.headers = append(p.headers, itemName(it, i))
		}
		return p, nil
	}

	if err := c.resolveSources(); err != nil {
		return nil, err
	}
	p.width = len(c.layout)

	conjs, err := c.analyzeConjuncts(splitAnd(sel.Where))
	if err != nil {
		return nil, err
	}

	// Source 0: pushdown and source-local filters.
	if err := c.placeSourceConjuncts(conjs, 0, &c.sources[0], nil); err != nil {
		return nil, err
	}
	p.scan0 = c.sources[0]

	// Join steps.
	for i := 1; i < len(c.sources); i++ {
		jp, err := c.compileJoin(i, conjs)
		if err != nil {
			return nil, err
		}
		p.joins = append(p.joins, *jp)
	}

	// Anything unresolved and unconsumed is a genuine reference error.
	for _, cj := range conjs {
		if !cj.consumed && cj.badRef != nil {
			return nil, cj.badRef
		}
	}

	// Projection / grouping.
	p.grouped = len(sel.GroupBy) > 0 || sel.Having != nil || anyItemAggregate(sel)
	var underEnv *compileEnv
	if p.grouped {
		underEnv, err = c.compileGrouped(p)
	} else {
		underEnv, err = c.compilePlain(p)
	}
	if err != nil {
		return nil, err
	}

	p.distinct = sel.Distinct
	p.under = underEnv
	if err := p.setTail(sel); err != nil {
		return nil, err
	}
	return p, nil
}

// WithTail returns the plan with sel's ORDER BY, LIMIT and OFFSET in place
// of its own; sel's other clauses are ignored. The keys compile as the
// plan's own would have, against its projection and its underlying row,
// so the enrichment pipeline can compile the base query once, learn its
// headers, and only then decide which part of the tail it keeps. p itself
// is left as it is.
func (p *SelectPlan) WithTail(sel *sqlparser.Select) (*SelectPlan, error) {
	if p.fromless {
		return p, nil
	}
	b := *p
	if err := b.setTail(sel); err != nil {
		return nil, err
	}
	return &b, nil
}

// setTail compiles sel's ORDER BY / LIMIT / OFFSET into p. ORDER BY:
// projected aliases first, then underlying columns. Both resolutions are
// kept when both compile — evaluation retries the underlying key per row
// when the projected one errors.
func (p *SelectPlan) setTail(sel *sqlparser.Select) error {
	p.order = nil
	if len(sel.OrderBy) > 0 {
		outCols := make([]ScopeCol, len(p.headers))
		for i, h := range p.headers {
			outCols[i] = ScopeCol{Name: h}
		}
		outEnv := &compileEnv{cols: outCols}
		for _, ob := range sel.OrderBy {
			op := orderPlan{desc: ob.Desc}
			outCE, outErr := compileExpr(ob.Expr, outEnv)
			underCE, underErr := compileExpr(ob.Expr, p.under)
			if outErr == nil {
				op.outKey = outCE
			}
			if underErr == nil {
				op.underKey = underCE
			}
			if op.outKey == nil && op.underKey == nil {
				return fmt.Errorf("sqlexec: ORDER BY: %w", underErr)
			}
			p.order = append(p.order, op)
		}
	}
	p.sortWidth = placeKeys(p.order, p.items, len(p.items))
	var err error
	p.limit, p.offset, err = LimitOffset(sel)
	return err
}

// LimitOffset evaluates a SELECT's LIMIT and OFFSET, which are constant
// expressions; -1 stands for an absent clause.
func LimitOffset(sel *sqlparser.Select) (limit, offset int, err error) {
	limit, offset = -1, -1
	if sel.Offset != nil {
		if offset, err = constInt(sel.Offset); err != nil {
			return 0, 0, err
		}
		if offset < 0 {
			return 0, 0, fmt.Errorf("sqlexec: negative OFFSET")
		}
	}
	if sel.Limit != nil {
		if limit, err = constInt(sel.Limit); err != nil {
			return 0, 0, err
		}
		if limit < 0 {
			return 0, 0, fmt.Errorf("sqlexec: negative LIMIT")
		}
	}
	return limit, offset, nil
}

func constInt(e sqlparser.Expr) (int, error) {
	ce, err := compileExpr(e, &compileEnv{})
	if err != nil {
		return 0, err
	}
	v, err := ce.eval(nil)
	if err != nil {
		return 0, err
	}
	n, err := intArg(v)
	return int(n), err
}

func (c *selCompiler) resolveSources() error {
	add := func(table, alias string, kind sqlparser.JoinKind, on sqlparser.Expr) error {
		rel, err := c.db.Resolve(table)
		if err != nil {
			return err
		}
		if alias == "" {
			alias = table
		}
		schema := rel.Schema()
		sp := scanPlan{rel: rel, offset: len(c.layout), width: len(schema), eqParam: -1}
		for _, col := range schema {
			c.layout = append(c.layout, ScopeCol{Qualifier: alias, Name: col.Name})
		}
		c.sources = append(c.sources, sp)
		c.kinds = append(c.kinds, kind)
		c.ons = append(c.ons, on)
		c.isOuter = append(c.isOuter, kind == sqlparser.JoinLeft)
		return nil
	}
	for _, tr := range c.sel.From {
		if err := add(tr.Table, tr.Alias, sqlparser.JoinCross, nil); err != nil {
			return err
		}
		for _, j := range tr.Joins {
			if err := add(j.Table, j.Alias, j.Kind, j.On); err != nil {
				return err
			}
		}
	}
	return nil
}

// srcOf maps a slot to its source index.
func (c *selCompiler) srcOf(slot int) int {
	for i := len(c.sources) - 1; i > 0; i-- {
		if slot >= c.sources[i].offset {
			return i
		}
	}
	return 0
}

// lookupIn resolves a column reference within a slot range [lo, hi),
// requiring uniqueness inside that range (the region-scoped resolution
// hash-join key detection uses).
func (c *selCompiler) lookupIn(cr *sqlparser.ColRef, lo, hi int) (int, bool) {
	found := -1
	for i := lo; i < hi; i++ {
		col := c.layout[i]
		if !strings.EqualFold(col.Name, cr.Name) {
			continue
		}
		if cr.Qualifier != "" && !strings.EqualFold(col.Qualifier, cr.Qualifier) {
			continue
		}
		if found >= 0 {
			return -1, false
		}
		found = i
	}
	return found, found >= 0
}

// analyzeConjuncts binds every WHERE conjunct to the earliest pipeline
// step whose prefix layout resolves it, compiling it against that prefix.
func (c *selCompiler) analyzeConjuncts(list []sqlparser.Expr) ([]*conjInfo, error) {
	out := make([]*conjInfo, 0, len(list))
	for _, e := range list {
		ci := &conjInfo{e: e, step: -1, srcOnly: -1}
		for s := range c.sources {
			end := c.sources[s].offset + c.sources[s].width
			env := &compileEnv{cols: c.layout[:end]}
			ce, err := compileExpr(e, env)
			if err != nil {
				if s == len(c.sources)-1 {
					ci.badRef = err
				}
				continue
			}
			ci.step, ci.ce = s, ce
			// srcOnly: the single source region holding every reference.
			refs := sqlparser.ColRefs(e)
			ci.srcOnly = s
			if len(refs) == 0 {
				ci.srcOnly = 0
			}
			for _, cr := range refs {
				slot, lerr := env.lookup(cr.Qualifier, cr.Name)
				if lerr != nil { // unreachable: the compile above resolved it
					return nil, lerr
				}
				if src := c.srcOf(slot); src != ci.srcOnly {
					ci.srcOnly = -1
					break
				}
			}
			break
		}
		out = append(out, ci)
	}
	return out, nil
}

// placeSourceConjuncts attaches the conjuncts owned by source s: an
// equality-against-constant conjunct becomes a ScanEq pushdown when the
// relation supports it, the rest become in-scan filters. For the right
// side of a LEFT JOIN (isOuter) WHERE conjuncts must stay post-join, so
// they are appended to post instead.
func (c *selCompiler) placeSourceConjuncts(conjs []*conjInfo, s int, sp *scanPlan, post *[]pred) error {
	for _, cj := range conjs {
		if cj.consumed || cj.srcOnly != s {
			continue
		}
		if c.isOuter[s] {
			if post != nil {
				*post = append(*post, newPred(cj.ce))
				cj.consumed = true
			}
			continue
		}
		if c.tryPushEq(cj, s, sp) {
			cj.consumed = true
			continue
		}
		if err := c.addFilter(sp, cj.e); err != nil {
			return err
		}
		cj.consumed = true
	}
	return nil
}

// addFilter compiles a conjunct over sp's columns alone against the
// source's own row. Every reference it makes resolves uniquely in a layout
// prefix and lands in sp's region, so it resolves to the same column
// there.
func (c *selCompiler) addFilter(sp *scanPlan, e sqlparser.Expr) error {
	ce, err := compileExpr(e, &compileEnv{cols: c.layout[sp.offset : sp.offset+sp.width]})
	if err != nil {
		return err
	}
	sp.filters = append(sp.filters, newPred(ce))
	c.tryPushCmp(sp, e)
	return nil
}

// flipped maps a comparison operator to the one that holds with its
// operands swapped.
var flipped = map[sqlparser.BinOpKind]sqlparser.BinOpKind{
	sqlparser.OpEq: sqlparser.OpEq, sqlparser.OpNe: sqlparser.OpNe,
	sqlparser.OpLt: sqlparser.OpGt, sqlparser.OpLe: sqlparser.OpGe,
	sqlparser.OpGt: sqlparser.OpLt, sqlparser.OpGe: sqlparser.OpLe,
}

// tryPushCmp sends sp's newest filter e to a source that can pre-filter
// (sqldb.PrefilterRelation) when it has the form `col op c`, op a
// comparison and c a non-NULL literal or a slot of the column's type. The
// filter itself stays: the source only narrows what travels. Only an
// unbroken prefix of the filters is sent, because the source evaluates
// its list in order and stops where a filter would: a row it drops is one
// the same prefix rejects here before any later filter could raise an
// error.
func (c *selCompiler) tryPushCmp(sp *scanPlan, e sqlparser.Expr) {
	if _, ok := sp.rel.(sqldb.PrefilterRelation); !ok || len(sp.where) != len(sp.filters)-1 {
		return
	}
	be, ok := e.(*sqlparser.BinExpr)
	if !ok {
		return
	}
	mirror, ok := flipped[be.Op]
	if !ok {
		return
	}
	op, other := be.Op, be.R
	ref, ok := be.L.(*sqlparser.ColRef)
	if !ok {
		op, other = mirror, be.L
		if ref, ok = be.R.(*sqlparser.ColRef); !ok {
			return
		}
	}
	slot, ok := c.lookupIn(ref, sp.offset, sp.offset+sp.width)
	if !ok {
		return
	}
	col := sp.rel.Schema()[slot-sp.offset]
	cond, param := sqldb.Comparison{Col: col.Name, Op: op.String()}, -1
	switch o := other.(type) {
	case *sqlparser.Literal:
		if o.Val.IsNull() {
			return
		}
		cond.Val = o.Val
	case *sqlparser.Param:
		if o.Type != col.Type {
			return
		}
		param = o.Index
	default:
		return
	}
	sp.where = append(sp.where, cond)
	sp.whereParam = append(sp.whereParam, param)
}

// tryPushEq pushes a `col = constant` conjunct into the source's scan as
// a ScanEq seek. The constant is pre-coerced to the column type and must
// survive the round trip unchanged (Compare-equal), so the encoded-key
// seek selects exactly the rows the predicate would. A slot (Param) is
// decided by its type alone, before any value is bound: it seeks only when
// it has the column's type, where the round trip is the identity for every
// value; otherwise it stays a filter, which selects the same rows.
func (c *selCompiler) tryPushEq(cj *conjInfo, s int, sp *scanPlan) bool {
	if sp.eqCol != "" {
		return false
	}
	be, ok := cj.e.(*sqlparser.BinExpr)
	if !ok || be.Op != sqlparser.OpEq {
		return false
	}
	cr, other := be.L, be.R
	if _, ok := cr.(*sqlparser.ColRef); !ok {
		cr, other = be.R, be.L
	}
	ref, ok := cr.(*sqlparser.ColRef)
	if !ok {
		return false
	}
	slot, ok := c.lookupIn(ref, sp.offset, sp.offset+sp.width)
	if !ok {
		return false
	}
	col := sp.rel.Schema()[slot-sp.offset]
	var cv sqlval.Value
	param := -1
	switch o := other.(type) {
	case *sqlparser.Literal:
		if o.Val.IsNull() {
			return false
		}
		var err error
		cv, err = sqlval.Coerce(o.Val, col.Type)
		if err != nil || cv.IsNull() {
			return false
		}
		if cmp, err := sqlval.Compare(cv, o.Val); err != nil || cmp != 0 {
			return false
		}
	case *sqlparser.Param:
		if o.Type != col.Type {
			return false
		}
		param = o.Index
	default:
		return false
	}
	fr, ok := sp.rel.(sqldb.FilteredRelation)
	if !ok {
		return false
	}
	// Local tables seek only through a hash index (an unindexed ScanEq is
	// just a filtered scan); foreign tables always benefit — the
	// predicate ships to the remote node instead of the whole table.
	if t, local := fr.(*sqldb.Table); local && !t.HasIndex(col.Name) {
		return false
	}
	sp.eqCol, sp.eqVal, sp.eqParam = col.Name, cv, param
	return true
}

// equiSides recognises `a.x = b.y` shapes where one side resolves
// (uniquely) in the left region and the other in the right region,
// returning the absolute slots.
func (c *selCompiler) equiSides(e sqlparser.Expr, rightLo, rightHi int) (int, int, bool) {
	be, ok := e.(*sqlparser.BinExpr)
	if !ok || be.Op != sqlparser.OpEq {
		return 0, 0, false
	}
	lc, ok1 := be.L.(*sqlparser.ColRef)
	rc, ok2 := be.R.(*sqlparser.ColRef)
	if !ok1 || !ok2 {
		return 0, 0, false
	}
	if ls, ok := c.lookupIn(lc, 0, rightLo); ok {
		if rs, ok := c.lookupIn(rc, rightLo, rightHi); ok {
			return ls, rs, true
		}
	}
	// Swapped orientation.
	if ls, ok := c.lookupIn(rc, 0, rightLo); ok {
		if rs, ok := c.lookupIn(lc, rightLo, rightHi); ok {
			return ls, rs, true
		}
	}
	return 0, 0, false
}

func (c *selCompiler) compileJoin(i int, conjs []*conjInfo) (*joinPlan, error) {
	src := c.sources[i]
	jp := &joinPlan{src: src}
	rightLo, rightHi := src.offset, src.offset+src.width
	prefixEnv := &compileEnv{cols: c.layout[:rightHi]}

	switch c.kinds[i] {
	case sqlparser.JoinInner, sqlparser.JoinLeft:
		left := c.kinds[i] == sqlparser.JoinLeft
		if c.ons[i] == nil {
			if left {
				return nil, fmt.Errorf("sqlexec: LEFT JOIN requires ON")
			}
			jp.kind = joinCross
			break
		}
		onConjs := splitAnd(c.ons[i])
		haveKey := false
		for _, oc := range onConjs {
			// First equi conjunct becomes the hash key.
			if !haveKey {
				if ls, rs, ok := c.equiSides(oc, rightLo, rightHi); ok {
					jp.leftSlot, jp.rightSlot = ls, rs
					haveKey = true
					continue
				}
			}
			// Conjuncts over the right source alone filter its scan —
			// safe for LEFT JOIN too: ON conditions only shape the match
			// set, padding happens after.
			if c.onRightOnly(oc, rightLo, rightHi) {
				if err := c.addFilter(&jp.src, oc); err != nil {
					return nil, err
				}
				continue
			}
			ce, err := compileExpr(oc, prefixEnv)
			if err != nil {
				return nil, err
			}
			jp.residual = append(jp.residual, newPred(ce))
		}
		switch {
		case haveKey && left:
			jp.kind = joinHashLeft
		case haveKey:
			jp.kind = joinHash
		case left:
			jp.kind = joinNestedLeft
		default:
			jp.kind = joinNested
		}

	default: // comma/cross: a WHERE equi conjunct can drive a hash join
		jp.kind = joinCross
		// Candidates are the conjuncts still unplaced at this join
		// step: first evaluable here, or never resolvable as a whole
		// yet region-resolvable (each side within its own sources).
		for _, cj := range conjs {
			if cj.consumed || (cj.step != i && cj.badRef == nil) {
				continue
			}
			if ls, rs, ok := c.equiSides(cj.e, rightLo, rightHi); ok {
				jp.leftSlot, jp.rightSlot = ls, rs
				jp.kind = joinHash
				cj.consumed = true
				break
			}
		}
	}

	// WHERE conjuncts owned by this source go into its scan (or post for
	// the right side of a LEFT JOIN).
	if err := c.placeSourceConjuncts(conjs, i, &jp.src, &jp.post); err != nil {
		return nil, err
	}
	// WHERE conjuncts that first become evaluable here run post-join.
	for _, cj := range conjs {
		if cj.consumed || cj.step != i {
			continue
		}
		jp.post = append(jp.post, newPred(cj.ce))
		cj.consumed = true
	}
	return jp, nil
}

// onRightOnly reports whether every column reference in e resolves within
// the right region.
func (c *selCompiler) onRightOnly(e sqlparser.Expr, rightLo, rightHi int) bool {
	refs := sqlparser.ColRefs(e)
	if len(refs) == 0 {
		return false // a constant ON conjunct stays a residual
	}
	for _, cr := range refs {
		if _, ok := c.lookupIn(cr, rightLo, rightHi); !ok {
			return false
		}
		// Must not ALSO resolve on the left: an unqualified name present
		// on both sides is ambiguous and belongs in the residual, where
		// evaluation reports it.
		if _, also := c.lookupIn(cr, 0, rightLo); also {
			return false
		}
	}
	return true
}

func (c *selCompiler) compilePlain(p *SelectPlan) (*compileEnv, error) {
	items, err := expandItems(c.sel, c.layout)
	if err != nil {
		return nil, err
	}
	env := &compileEnv{cols: c.layout}
	for i, it := range items {
		ce, err := compileExpr(it.Expr, env)
		if err != nil {
			return nil, err
		}
		p.items = append(p.items, ce)
		p.headers = append(p.headers, itemName(it, i))
	}
	return env, nil
}

func (c *selCompiler) compileGrouped(p *SelectPlan) (*compileEnv, error) {
	sel := c.sel
	items, err := expandItems(sel, c.layout)
	if err != nil {
		return nil, err
	}

	// Gather the distinct aggregate calls from items and HAVING; each gets
	// one ext-row slot past the joined-row width.
	var aggCalls []*sqlparser.FuncCall
	for _, it := range items {
		aggCalls = aggregateCalls(aggCalls, it.Expr)
	}
	aggCalls = aggregateCalls(aggCalls, sel.Having)

	g := &groupSink{}
	baseEnv := &compileEnv{cols: c.layout}
	aggSlots := map[string]int{}
	for _, fc := range aggCalls {
		key := fc.SQL()
		if _, dup := aggSlots[key]; dup {
			continue
		}
		spec := aggSpec{fc: fc}
		if !fc.Star {
			if len(fc.Args) != 1 {
				return nil, fmt.Errorf("sqlexec: %s expects one argument", fc.Name)
			}
			arg, err := compileExpr(fc.Args[0], baseEnv)
			if err != nil {
				return nil, err
			}
			spec.arg = arg
		}
		aggSlots[key] = p.width + len(g.aggs)
		g.aggs = append(g.aggs, spec)
	}

	for _, ge := range sel.GroupBy {
		ke, err := compileExpr(ge, baseEnv)
		if err != nil {
			return nil, err
		}
		g.keys = append(g.keys, ke)
	}

	aggEnv := &compileEnv{cols: c.layout, aggs: aggSlots}
	if sel.Having != nil {
		if g.having, err = compileExpr(sel.Having, aggEnv); err != nil {
			return nil, err
		}
	}
	for i, it := range items {
		ce, err := compileExpr(it.Expr, aggEnv)
		if err != nil {
			return nil, err
		}
		p.items = append(p.items, ce)
		p.headers = append(p.headers, itemName(it, i))
	}
	p.group = g
	return aggEnv, nil
}

// itemName is an output column's header: its alias, a bare column's name,
// or the expression's SQL text.
func itemName(it sqlparser.SelectItem, pos int) string {
	if it.Alias != "" {
		return it.Alias
	}
	if cr, ok := it.Expr.(*sqlparser.ColRef); ok {
		return cr.Name
	}
	if it.Expr != nil {
		return it.Expr.SQL()
	}
	return fmt.Sprintf("col%d", pos+1)
}

// expandItems resolves stars into concrete column projections against a
// column layout.
func expandItems(sel *sqlparser.Select, cols []ScopeCol) ([]sqlparser.SelectItem, error) {
	var out []sqlparser.SelectItem
	for _, it := range sel.Items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		matched := false
		for _, c := range cols {
			if it.Qualifier != "" && !strings.EqualFold(c.Qualifier, it.Qualifier) {
				continue
			}
			matched = true
			out = append(out, sqlparser.SelectItem{
				Expr:  &sqlparser.ColRef{Qualifier: c.Qualifier, Name: c.Name},
				Alias: c.Name,
			})
		}
		if !matched {
			return nil, fmt.Errorf("sqlexec: %s.* matches no columns", it.Qualifier)
		}
	}
	return out, nil
}

// anyItemAggregate reports whether a projected expression holds an
// aggregate call, which makes the SELECT grouped.
func anyItemAggregate(sel *sqlparser.Select) bool {
	for _, it := range sel.Items {
		if !it.Star && len(aggregateCalls(nil, it.Expr)) > 0 {
			return true
		}
	}
	return false
}

// splitAnd flattens a conjunction into its conjuncts.
func splitAnd(e sqlparser.Expr) []sqlparser.Expr {
	if e == nil {
		return nil
	}
	if be, ok := e.(*sqlparser.BinExpr); ok && be.Op == sqlparser.OpAnd {
		return append(splitAnd(be.L), splitAnd(be.R)...)
	}
	return []sqlparser.Expr{e}
}

// --- expression compilation ---

// compileEnv resolves column references (and, in grouped evaluation,
// aggregate calls) to row slots during expression compilation.
type compileEnv struct {
	cols []ScopeCol
	// aggs maps a rendered aggregate call (FuncCall.SQL()) to its ext-row
	// slot. Nil outside grouped evaluation: aggregate calls then fail to
	// compile with an "aggregate outside grouping context" error.
	aggs map[string]int
}

func (env *compileEnv) lookup(qual, name string) (int, error) {
	found := -1
	for i, c := range env.cols {
		if !strings.EqualFold(c.Name, name) {
			continue
		}
		if qual != "" && !strings.EqualFold(c.Qualifier, qual) {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("sqlexec: ambiguous column reference %q", refName(qual, name))
		}
		found = i
	}
	if found < 0 {
		return -1, fmt.Errorf("sqlexec: unknown column %q", refName(qual, name))
	}
	return found, nil
}

// compileExpr lowers an expression to a slot-resolved evaluator tree.
func compileExpr(e sqlparser.Expr, env *compileEnv) (cexpr, error) {
	switch ex := e.(type) {
	case *sqlparser.Literal:
		return cConst{v: ex.Val}, nil
	case *sqlparser.Param:
		return cParam{index: ex.Index}, nil
	case *sqlparser.ColRef:
		slot, err := env.lookup(ex.Qualifier, ex.Name)
		if err != nil {
			return nil, err
		}
		return cSlot{slot: slot}, nil
	case *sqlparser.BinExpr:
		return compileBin(ex, env)
	case *sqlparser.UnaryExpr:
		sub, err := compileExpr(ex.E, env)
		if err != nil {
			return nil, err
		}
		switch ex.Op {
		case "NOT":
			return cNot{e: sub}, nil
		case "-":
			return cNeg{e: sub}, nil
		default:
			return nil, fmt.Errorf("sqlexec: unknown unary operator %q", ex.Op)
		}
	case *sqlparser.IsNull:
		sub, err := compileExpr(ex.E, env)
		if err != nil {
			return nil, err
		}
		return cIsNull{e: sub, not: ex.Not}, nil
	case *sqlparser.InList:
		sub, err := compileExpr(ex.E, env)
		if err != nil {
			return nil, err
		}
		list := make([]cexpr, len(ex.List))
		for i, le := range ex.List {
			if list[i], err = compileExpr(le, env); err != nil {
				return nil, err
			}
		}
		return cIn{e: sub, list: list, not: ex.Not}, nil
	case *sqlparser.Between:
		sub, err := compileExpr(ex.E, env)
		if err != nil {
			return nil, err
		}
		lo, err := compileExpr(ex.Lo, env)
		if err != nil {
			return nil, err
		}
		hi, err := compileExpr(ex.Hi, env)
		if err != nil {
			return nil, err
		}
		return cBetween{e: sub, lo: lo, hi: hi, not: ex.Not}, nil
	case *sqlparser.FuncCall:
		if isAggregate(ex.Name) {
			if env.aggs == nil {
				return nil, fmt.Errorf("sqlexec: aggregate %s outside grouping context", ex.Name)
			}
			slot, ok := env.aggs[ex.SQL()]
			if !ok {
				return nil, fmt.Errorf("sqlexec: aggregate %s not computed", ex.SQL())
			}
			return cSlot{slot: slot}, nil
		}
		args := make([]cexpr, len(ex.Args))
		var err error
		for i, a := range ex.Args {
			if args[i], err = compileExpr(a, env); err != nil {
				return nil, err
			}
		}
		// Name and arity validation stays at evaluation time (see
		// applyScalarFunc).
		return cFunc{name: ex.Name, args: args}, nil
	case *sqlparser.CaseExpr:
		return compileCase(ex, env)
	default:
		return nil, fmt.Errorf("sqlexec: unsupported expression %T", e)
	}
}

func compileBin(ex *sqlparser.BinExpr, env *compileEnv) (cexpr, error) {
	l, err := compileExpr(ex.L, env)
	if err != nil {
		return nil, err
	}
	r, err := compileExpr(ex.R, env)
	if err != nil {
		return nil, err
	}
	switch ex.Op {
	case sqlparser.OpAnd:
		return cAnd{l: l, r: r}, nil
	case sqlparser.OpOr:
		return cOr{l: l, r: r}, nil
	case sqlparser.OpEq, sqlparser.OpNe, sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe:
		return cCmp{op: ex.Op, l: l, r: r}, nil
	case sqlparser.OpAdd, sqlparser.OpSub, sqlparser.OpMul, sqlparser.OpDiv, sqlparser.OpMod:
		return cArith{op: ex.Op, l: l, r: r}, nil
	case sqlparser.OpConcat:
		return cConcat{l: l, r: r}, nil
	case sqlparser.OpLike:
		if lit, ok := ex.R.(*sqlparser.Literal); ok && lit.Val.Type() == sqlval.TypeString {
			return cLikeConst{arg: l, m: compileLike(lit.Val.Str())}, nil
		}
		return cLikeDyn{l: l, r: r}, nil
	default:
		return nil, fmt.Errorf("sqlexec: unsupported operator %v", ex.Op)
	}
}

func compileCase(ex *sqlparser.CaseExpr, env *compileEnv) (cexpr, error) {
	out := cCase{}
	var err error
	if ex.Operand != nil {
		if out.operand, err = compileExpr(ex.Operand, env); err != nil {
			return nil, err
		}
	}
	out.whens = make([]cWhen, len(ex.Whens))
	for i, w := range ex.Whens {
		if out.whens[i].cond, err = compileExpr(w.Cond, env); err != nil {
			return nil, err
		}
		if out.whens[i].then, err = compileExpr(w.Then, env); err != nil {
			return nil, err
		}
	}
	if ex.Else != nil {
		if out.els, err = compileExpr(ex.Else, env); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// --- compiled expression nodes (value rules in expr.go) ---

// cexpr is a compiled expression evaluated against a row slice.
type cexpr interface {
	eval(row []sqlval.Value) (sqlval.Value, error)
}

// cEvalBool evaluates a compiled predicate with SQL 3VL: NULL is
// UNKNOWN, and any other value must coerce to BOOLEAN.
func cEvalBool(e cexpr, row []sqlval.Value) (sqlval.Tri, error) {
	v, err := e.eval(row)
	if err != nil {
		return sqlval.Unknown, err
	}
	if v.IsNull() {
		return sqlval.Unknown, nil
	}
	b, err := sqlval.Coerce(v, sqlval.TypeBool)
	if err != nil {
		return sqlval.Unknown, fmt.Errorf("sqlexec: predicate is not boolean: %w", err)
	}
	return sqlval.TriOf(b.Bool()), nil
}

type cConst struct{ v sqlval.Value }

func (c cConst) eval([]sqlval.Value) (sqlval.Value, error) { return c.v, nil }

// cParam is a literal slot of a template plan; Bind replaces it by the
// bound value, so it only evaluates in a plan nobody bound.
type cParam struct{ index int }

func (c cParam) eval([]sqlval.Value) (sqlval.Value, error) {
	return sqlval.Null, fmt.Errorf("sqlexec: parameter ?%d is not bound", c.index+1)
}

type cSlot struct{ slot int }

func (c cSlot) eval(row []sqlval.Value) (sqlval.Value, error) { return row[c.slot], nil }

type cAnd struct{ l, r cexpr }

func (c cAnd) eval(row []sqlval.Value) (sqlval.Value, error) {
	l, err := cEvalBool(c.l, row)
	if err != nil {
		return sqlval.Null, err
	}
	r, err := cEvalBool(c.r, row)
	if err != nil {
		return sqlval.Null, err
	}
	return l.And(r).Value(), nil
}

type cOr struct{ l, r cexpr }

func (c cOr) eval(row []sqlval.Value) (sqlval.Value, error) {
	l, err := cEvalBool(c.l, row)
	if err != nil {
		return sqlval.Null, err
	}
	r, err := cEvalBool(c.r, row)
	if err != nil {
		return sqlval.Null, err
	}
	return l.Or(r).Value(), nil
}

type cCmp struct {
	op   sqlparser.BinOpKind
	l, r cexpr
}

func (c cCmp) eval(row []sqlval.Value) (sqlval.Value, error) {
	l, err := c.l.eval(row)
	if err != nil {
		return sqlval.Null, err
	}
	r, err := c.r.eval(row)
	if err != nil {
		return sqlval.Null, err
	}
	if l.IsNull() || r.IsNull() {
		return sqlval.Null, nil // UNKNOWN
	}
	cmp, err := sqlval.Compare(l, r)
	if err != nil {
		return sqlval.Null, err
	}
	return sqlval.NewBool(holds(c.op, cmp)), nil
}

type cArith struct {
	op   sqlparser.BinOpKind
	l, r cexpr
}

func (c cArith) eval(row []sqlval.Value) (sqlval.Value, error) {
	l, err := c.l.eval(row)
	if err != nil {
		return sqlval.Null, err
	}
	r, err := c.r.eval(row)
	if err != nil {
		return sqlval.Null, err
	}
	return evalArith(c.op, l, r)
}

type cConcat struct{ l, r cexpr }

func (c cConcat) eval(row []sqlval.Value) (sqlval.Value, error) {
	l, err := c.l.eval(row)
	if err != nil {
		return sqlval.Null, err
	}
	r, err := c.r.eval(row)
	if err != nil {
		return sqlval.Null, err
	}
	if l.IsNull() || r.IsNull() {
		return sqlval.Null, nil
	}
	return sqlval.NewString(l.String() + r.String()), nil
}

type cLikeConst struct {
	arg cexpr
	m   *likeMatcher
}

func (c cLikeConst) eval(row []sqlval.Value) (sqlval.Value, error) {
	v, err := c.arg.eval(row)
	if err != nil {
		return sqlval.Null, err
	}
	if v.IsNull() {
		return sqlval.Null, nil
	}
	if v.Type() != sqlval.TypeString {
		return sqlval.Null, fmt.Errorf("sqlexec: LIKE requires text operands")
	}
	return sqlval.NewBool(c.m.match(v.Str())), nil
}

type cLikeDyn struct{ l, r cexpr }

func (c cLikeDyn) eval(row []sqlval.Value) (sqlval.Value, error) {
	l, err := c.l.eval(row)
	if err != nil {
		return sqlval.Null, err
	}
	r, err := c.r.eval(row)
	if err != nil {
		return sqlval.Null, err
	}
	if l.IsNull() || r.IsNull() {
		return sqlval.Null, nil
	}
	if l.Type() != sqlval.TypeString || r.Type() != sqlval.TypeString {
		return sqlval.Null, fmt.Errorf("sqlexec: LIKE requires text operands")
	}
	return sqlval.NewBool(compileLike(r.Str()).match(l.Str())), nil
}

type cNot struct{ e cexpr }

func (c cNot) eval(row []sqlval.Value) (sqlval.Value, error) {
	t, err := cEvalBool(c.e, row)
	if err != nil {
		return sqlval.Null, err
	}
	return t.Not().Value(), nil
}

type cNeg struct{ e cexpr }

func (c cNeg) eval(row []sqlval.Value) (sqlval.Value, error) {
	v, err := c.e.eval(row)
	if err != nil {
		return sqlval.Null, err
	}
	return negate(v)
}

type cIsNull struct {
	e   cexpr
	not bool
}

func (c cIsNull) eval(row []sqlval.Value) (sqlval.Value, error) {
	v, err := c.e.eval(row)
	if err != nil {
		return sqlval.Null, err
	}
	if c.not {
		return sqlval.NewBool(!v.IsNull()), nil
	}
	return sqlval.NewBool(v.IsNull()), nil
}

type cIn struct {
	e    cexpr
	list []cexpr
	not  bool
}

func (c cIn) eval(row []sqlval.Value) (sqlval.Value, error) {
	v, err := c.e.eval(row)
	if err != nil {
		return sqlval.Null, err
	}
	if v.IsNull() {
		return sqlval.Null, nil
	}
	sawNull := false
	for _, le := range c.list {
		lv, err := le.eval(row)
		if err != nil {
			return sqlval.Null, err
		}
		if lv.IsNull() {
			sawNull = true
			continue
		}
		if cmp, err := sqlval.Compare(v, lv); err == nil && cmp == 0 {
			return sqlval.NewBool(!c.not), nil
		}
	}
	if sawNull {
		return sqlval.Null, nil // UNKNOWN per SQL semantics
	}
	return sqlval.NewBool(c.not), nil
}

type cBetween struct {
	e, lo, hi cexpr
	not       bool
}

func (c cBetween) eval(row []sqlval.Value) (sqlval.Value, error) {
	v, err := c.e.eval(row)
	if err != nil {
		return sqlval.Null, err
	}
	lo, err := c.lo.eval(row)
	if err != nil {
		return sqlval.Null, err
	}
	hi, err := c.hi.eval(row)
	if err != nil {
		return sqlval.Null, err
	}
	if v.IsNull() || lo.IsNull() || hi.IsNull() {
		return sqlval.Null, nil
	}
	c1, err := sqlval.Compare(v, lo)
	if err != nil {
		return sqlval.Null, err
	}
	c2, err := sqlval.Compare(v, hi)
	if err != nil {
		return sqlval.Null, err
	}
	in := c1 >= 0 && c2 <= 0
	if c.not {
		in = !in
	}
	return sqlval.NewBool(in), nil
}

type cFunc struct {
	name string
	args []cexpr
}

func (c cFunc) eval(row []sqlval.Value) (sqlval.Value, error) {
	args := make([]sqlval.Value, len(c.args))
	for i, a := range c.args {
		v, err := a.eval(row)
		if err != nil {
			return sqlval.Null, err
		}
		args[i] = v
	}
	return applyScalarFunc(c.name, args)
}

type cWhen struct{ cond, then cexpr }

type cCase struct {
	operand cexpr // nil for searched CASE
	whens   []cWhen
	els     cexpr // nil when absent
}

func (c cCase) eval(row []sqlval.Value) (sqlval.Value, error) {
	if c.operand != nil {
		op, err := c.operand.eval(row)
		if err != nil {
			return sqlval.Null, err
		}
		for _, w := range c.whens {
			wv, err := w.cond.eval(row)
			if err != nil {
				return sqlval.Null, err
			}
			if !op.IsNull() && !wv.IsNull() {
				if cmp, err := sqlval.Compare(op, wv); err == nil && cmp == 0 {
					return w.then.eval(row)
				}
			}
		}
	} else {
		for _, w := range c.whens {
			t, err := cEvalBool(w.cond, row)
			if err != nil {
				return sqlval.Null, err
			}
			if t == sqlval.True {
				return w.then.eval(row)
			}
		}
	}
	if c.els != nil {
		return c.els.eval(row)
	}
	return sqlval.Null, nil
}

// --- Predicate: compiled boolean expression over a fixed layout ---

// Predicate is a compiled boolean expression over a fixed column layout.
// The enrichment pipeline and the UPDATE/DELETE paths use it to evaluate
// one parsed predicate against many rows without walking the AST per row.
type Predicate struct{ p pred }

// CompilePredicate lowers e against the column layout. Column references
// resolve to row offsets once, at compile time.
func CompilePredicate(cols []ScopeCol, e sqlparser.Expr) (*Predicate, error) {
	ce, err := compileExpr(e, &compileEnv{cols: cols})
	if err != nil {
		return nil, err
	}
	return &Predicate{p: newPred(ce)}, nil
}

// EvalBool evaluates the predicate over a row (parallel to the layout it
// was compiled against) with SQL three-valued logic.
func (p *Predicate) EvalBool(row []sqlval.Value) (sqlval.Tri, error) {
	return p.p.eval(row)
}

// Bind returns the predicate with its slots bound to params (see
// SelectPlan.Bind); p itself is left as it is.
func (p *Predicate) Bind(params []sqlval.Value) *Predicate {
	if e, ok := bindExpr(p.p.e, params); ok {
		return &Predicate{p: newPred(e)}
	}
	return p
}

// CompiledExpr is a compiled scalar expression over a fixed column layout.
type CompiledExpr struct{ e cexpr }

// CompileExpr lowers a scalar expression against the column layout.
func CompileExpr(cols []ScopeCol, e sqlparser.Expr) (*CompiledExpr, error) {
	ce, err := compileExpr(e, &compileEnv{cols: cols})
	if err != nil {
		return nil, err
	}
	return &CompiledExpr{e: ce}, nil
}

// Eval evaluates the expression over a row parallel to the layout.
func (x *CompiledExpr) Eval(row []sqlval.Value) (sqlval.Value, error) {
	return x.e.eval(row)
}

// Tail is a compiled ORDER BY / LIMIT / OFFSET over rows already
// materialised under a fixed column layout — the final stage the
// enrichment pipeline runs after its join. It compiles once with the
// query; a key that is a column reads the row itself, any other is
// evaluated once per row into an extended copy. Safe for concurrent use.
type Tail struct {
	order         []orderPlan
	n, width      int // layout width; buffered row width with hidden keys
	limit, offset int // -1 = absent
}

// CompileTail compiles sel's ORDER BY / LIMIT / OFFSET against the column
// layout cols; sel's other clauses are ignored.
func CompileTail(cols []ScopeCol, sel *sqlparser.Select) (*Tail, error) {
	t := &Tail{n: len(cols)}
	var err error
	if t.limit, t.offset, err = LimitOffset(sel); err != nil {
		return nil, err
	}
	env := &compileEnv{cols: cols}
	for _, ob := range sel.OrderBy {
		ce, err := compileExpr(ob.Expr, env)
		if err != nil {
			return nil, fmt.Errorf("sqlexec: ORDER BY: %w", err)
		}
		t.order = append(t.order, orderPlan{outKey: ce, desc: ob.Desc})
	}
	t.width = placeKeys(t.order, nil, t.n)
	return t, nil
}

// Apply runs the tail over rows laid out as compiled and returns the
// window in a slice of its own, rows cut to the layout, leaving rows as it
// was. The window is selected and sorted by the executor's own comparison
// (sortWindow, ties in arrival order); without an ORDER BY it is only a
// slice. As for a SelectPlan's window (windowOut), a window under half of
// rows is copied, so that it does not pin every input row, and the sort
// buffers are recycled (putSortScratch).
func (t *Tail) Apply(rows [][]sqlval.Value) ([][]sqlval.Value, error) {
	if len(t.order) == 0 {
		win := window(rows, t.offset, t.limit)
		w := newWindowOut(len(win), len(rows), t.n)
		for _, row := range win {
			w.add(row)
		}
		return w.rows, nil
	}
	sorted, ext := takeSortScratch(t.width, len(rows))
	sorted = sorted[:len(rows)]
	for i, row := range rows {
		if t.width > t.n {
			x := ext.Copy(row)
			for _, op := range t.order {
				if op.at >= t.n {
					var err error
					if x[op.at], err = op.outKey.eval(row); err != nil {
						return nil, err
					}
				}
			}
			row = x
		}
		sorted[i] = sortedRow{row: row, seq: int64(i)}
	}
	win := bracketWindow(t.order, sorted, t.offset, t.limit)
	w := newWindowOut(len(win), len(rows), t.n)
	for _, sr := range win {
		w.add(sr.row)
	}
	putSortScratch(sorted, ext, w.arena != nil)
	return w.rows, nil
}
