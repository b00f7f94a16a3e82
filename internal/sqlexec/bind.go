package sqlexec

// bind.go — binding a template plan. A SELECT parsed from a query shape
// (sqlparser.ParseSelectTemplate) compiles like any other, with each
// literal slot lowered to a cParam node and a seek on a slot recorded as
// scanPlan.eqParam. Bind fills the slots of one execution: it copies only
// the nodes on a path to a slot, so the template stays immutable and
// shared, and binding costs a walk of the plan's compiled expressions —
// no parsing, name resolution or join planning.

import (
	"slices"

	"crosse/internal/sqldb"
	"crosse/internal/sqlval"
)

// Bind returns the plan with slot i bound to params[i]: the constants the
// query text that shares this plan's shape would have compiled to. A plan
// without slots is returned as is; p itself is never modified.
func (p *SelectPlan) Bind(params []sqlval.Value) *SelectPlan {
	b := *p
	var c1, c2 bool
	b.scan0, c1 = bindScan(p.scan0, params)
	b.items, c2 = bindList(p.items, params)
	changed := c1 || c2
	joinsCopied := false
	for i := range p.joins {
		j := p.joins[i]
		var c1, c2, c3 bool
		j.src, c1 = bindScan(j.src, params)
		j.residual, c2 = bindPreds(j.residual, params)
		j.post, c3 = bindPreds(j.post, params)
		if c1 || c2 || c3 {
			if !joinsCopied {
				b.joins = append([]joinPlan(nil), p.joins...)
				joinsCopied, changed = true, true
			}
			b.joins[i] = j
		}
	}
	if p.group != nil {
		g := *p.group
		var c1, c2, c3 bool
		g.keys, c1 = bindList(g.keys, params)
		g.having, c2 = bindExpr(g.having, params)
		for i, a := range g.aggs {
			if a.arg == nil {
				continue
			}
			if arg, ok := bindExpr(a.arg, params); ok {
				if !c3 {
					g.aggs = append([]aggSpec(nil), g.aggs...)
					c3 = true
				}
				g.aggs[i].arg = arg
			}
		}
		if c1 || c2 || c3 {
			b.group = &g
			changed = true
		}
	}
	if !changed {
		return p
	}
	return &b
}

// bindScan binds a scan's seek value, pushed comparisons and filters.
func bindScan(sp scanPlan, params []sqlval.Value) (scanPlan, bool) {
	changed := false
	if sp.eqParam >= 0 && sp.eqParam < len(params) {
		sp.eqVal, sp.eqParam = params[sp.eqParam], -1
		changed = true
	}
	if slices.ContainsFunc(sp.whereParam, isSlot) {
		where := make([]sqldb.Comparison, 0, len(sp.where))
		for i, c := range sp.where {
			if pi := sp.whereParam[i]; pi >= 0 {
				if pi >= len(params) {
					break // unbound: the filter reports it
				}
				c.Val = params[pi]
			}
			where = append(where, c)
		}
		sp.where, sp.whereParam = where, nil
		changed = true
	}
	var ok bool
	sp.filters, ok = bindPreds(sp.filters, params)
	return sp, changed || ok
}

// isSlot reports whether a scanPlan.whereParam entry names a slot.
func isSlot(param int) bool { return param >= 0 }

// bindList binds every expression of es, copying the slice only when one
// of them changed.
func bindList(es []cexpr, params []sqlval.Value) ([]cexpr, bool) {
	var out []cexpr
	for i, e := range es {
		if be, ok := bindExpr(e, params); ok {
			if out == nil {
				out = append([]cexpr(nil), es...)
			}
			out[i] = be
		}
	}
	if out == nil {
		return es, false
	}
	return out, true
}

// bindPreds binds every predicate of ps, lowering each one that changed
// anew (a bound slot is a constant a kernel can type), and copies the
// slice only when one of them changed.
func bindPreds(ps []pred, params []sqlval.Value) ([]pred, bool) {
	var out []pred
	for i := range ps {
		if e, ok := bindExpr(ps[i].e, params); ok {
			if out == nil {
				out = append([]pred(nil), ps...)
			}
			out[i] = newPred(e)
		}
	}
	if out == nil {
		return ps, false
	}
	return out, true
}

// bindExpr returns e with its slots replaced by constants, and whether
// anything changed; unchanged subtrees are shared, not copied.
func bindExpr(e cexpr, params []sqlval.Value) (cexpr, bool) {
	bind2 := func(l, r cexpr) (cexpr, cexpr, bool) {
		bl, okl := bindExpr(l, params)
		br, okr := bindExpr(r, params)
		return bl, br, okl || okr
	}
	switch c := e.(type) {
	case nil, cConst, cSlot:
		return e, false
	case cParam:
		if c.index >= len(params) {
			return e, false
		}
		return cConst{v: params[c.index]}, true
	case cAnd:
		if l, r, ok := bind2(c.l, c.r); ok {
			return cAnd{l: l, r: r}, true
		}
	case cOr:
		if l, r, ok := bind2(c.l, c.r); ok {
			return cOr{l: l, r: r}, true
		}
	case cCmp:
		if l, r, ok := bind2(c.l, c.r); ok {
			return cCmp{op: c.op, l: l, r: r}, true
		}
	case cArith:
		if l, r, ok := bind2(c.l, c.r); ok {
			return cArith{op: c.op, l: l, r: r}, true
		}
	case cConcat:
		if l, r, ok := bind2(c.l, c.r); ok {
			return cConcat{l: l, r: r}, true
		}
	case cLikeDyn:
		if l, r, ok := bind2(c.l, c.r); ok {
			return cLikeDyn{l: l, r: r}, true
		}
	case cLikeConst:
		if a, ok := bindExpr(c.arg, params); ok {
			return cLikeConst{arg: a, m: c.m}, true
		}
	case cNot:
		if x, ok := bindExpr(c.e, params); ok {
			return cNot{e: x}, true
		}
	case cNeg:
		if x, ok := bindExpr(c.e, params); ok {
			return cNeg{e: x}, true
		}
	case cIsNull:
		if x, ok := bindExpr(c.e, params); ok {
			return cIsNull{e: x, not: c.not}, true
		}
	case cIn:
		x, ok1 := bindExpr(c.e, params)
		list, ok2 := bindList(c.list, params)
		if ok1 || ok2 {
			return cIn{e: x, list: list, not: c.not}, true
		}
	case cBetween:
		x, ok1 := bindExpr(c.e, params)
		lo, hi, ok2 := bind2(c.lo, c.hi)
		if ok1 || ok2 {
			return cBetween{e: x, lo: lo, hi: hi, not: c.not}, true
		}
	case cFunc:
		if args, ok := bindList(c.args, params); ok {
			return cFunc{name: c.name, args: args}, true
		}
	case cCase:
		op, ok1 := bindExpr(c.operand, params)
		els, ok2 := bindExpr(c.els, params)
		whens, ok3 := c.whens, false
		for i, w := range c.whens {
			if cond, then, ok := bind2(w.cond, w.then); ok {
				if !ok3 {
					whens = append([]cWhen(nil), c.whens...)
					ok3 = true
				}
				whens[i] = cWhen{cond: cond, then: then}
			}
		}
		if ok1 || ok2 || ok3 {
			return cCase{operand: op, whens: whens, els: els}, true
		}
	}
	return e, false
}
