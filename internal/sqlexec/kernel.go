package sqlexec

// kernel.go — typed predicate kernels. A WHERE/ON conjunct whose operands
// are row slots and constants lowers, besides its generic cexpr tree, to a
// kernel that evaluates it straight to a Tri: no Value result, no
// interface call per operand, no error and no Coerce. Each operand pair's
// types are checked at run time by one type switch (sqlval.TryCompare):
// two values of one type, or an INTEGER against a DOUBLE — both widened
// to float64, NaN above every number, exactly as sqlval.Compare orders
// them. Whatever the kernel does not answer exactly — a NULL, a class
// mismatch, any type it did not expect — it declines, and the generic tree
// evaluates the row. The generic tree thus stays the only source of
// predicate errors, and nothing trusts the schema: foreign rows and
// ontology values reach the executor uncoerced.
//
// Kernels cover slot op const, const op slot, slot op slot, BETWEEN,
// IN (constants), IS [NOT] NULL, and AND/OR/NOT over kernels. A template
// plan's literal slot is a cParam until Bind makes it a constant, so its
// predicates get their kernels when they are bound.

import (
	"crosse/internal/sqlparser"
	"crosse/internal/sqlval"
)

// pred is one compiled predicate: the generic evaluator tree and, when its
// shape has one, the typed kernel that answers most rows without it.
type pred struct {
	e cexpr
	k kernel // nil: no kernel for this shape
}

// newPred pairs a compiled predicate with its kernel.
func newPred(e cexpr) pred { return pred{e: e, k: lowerKernel(e)} }

// eval evaluates the predicate with SQL 3VL: the kernel when it answers
// the row, the generic tree otherwise.
func (p *pred) eval(row []sqlval.Value) (sqlval.Tri, error) {
	if p.k != nil {
		if t, ok := p.k.tri(row); ok {
			return t, nil
		}
	}
	return cEvalBool(p.e, row)
}

// allTrue evaluates conjuncts in order and stops at the first that is not
// True: ok reports whether all were, err the error that stopped it.
func allTrue(conj []pred, row []sqlval.Value) (ok bool, err error) {
	for i := range conj {
		t, err := conj[i].eval(row)
		if err != nil || t != sqlval.True {
			return false, err
		}
	}
	return true, nil
}

// kernel evaluates one predicate to a Tri. ok is false when the row is not
// one it answers exactly; the caller then runs the generic tree. Whenever
// ok is true, the generic tree returns the same Tri and no error.
type kernel interface {
	tri(row []sqlval.Value) (t sqlval.Tri, ok bool)
}

// operand is a kernel operand: row[slot], or the constant c when slot < 0.
type operand struct {
	slot int
	c    sqlval.Value
}

func (o *operand) get(row []sqlval.Value) sqlval.Value {
	if o.slot >= 0 {
		return row[o.slot]
	}
	return o.c
}

// operandOf lowers a slot or a non-NULL constant; NULL constants and every
// other node have no kernel operand.
func operandOf(e cexpr) (operand, bool) {
	switch c := e.(type) {
	case cSlot:
		return operand{slot: c.slot}, true
	case cConst:
		return operand{slot: -1, c: c.v}, !c.v.IsNull()
	}
	return operand{}, false
}

// lowerKernel returns the kernel of a compiled predicate, or nil when its
// shape has none.
func lowerKernel(e cexpr) kernel {
	switch c := e.(type) {
	case cCmp:
		l, okl := operandOf(c.l)
		r, okr := operandOf(c.r)
		if okl && okr {
			return &cmpKernel{op: c.op, l: l, r: r}
		}
	case cBetween:
		v, ok1 := operandOf(c.e)
		lo, ok2 := operandOf(c.lo)
		hi, ok3 := operandOf(c.hi)
		if ok1 && ok2 && ok3 {
			return &betweenKernel{e: v, lo: lo, hi: hi, not: c.not}
		}
	case cIn:
		return lowerIn(c)
	case cIsNull:
		if v, ok := c.e.(cSlot); ok {
			return &isNullKernel{slot: v.slot, not: c.not}
		}
	case cNot:
		if k := lowerKernel(c.e); k != nil {
			return &notKernel{k: k}
		}
	case cAnd:
		if l, r := lowerKernel(c.l), lowerKernel(c.r); l != nil && r != nil {
			return &andKernel{l: l, r: r}
		}
	case cOr:
		if l, r := lowerKernel(c.l), lowerKernel(c.r); l != nil && r != nil {
			return &orKernel{l: l, r: r}
		}
	}
	return nil
}

// lowerIn lowers `e IN (constants)` whose non-NULL constants share one
// type: then the row value's comparison with the first decides whether it
// compares with every element.
func lowerIn(c cIn) kernel {
	v, ok := operandOf(c.e)
	if !ok {
		return nil
	}
	k := &inKernel{e: v, not: c.not}
	typ := sqlval.TypeNull
	for _, le := range c.list {
		lc, ok := le.(cConst)
		switch {
		case !ok:
			return nil
		case lc.v.IsNull():
			k.sawNull = true
		case typ == sqlval.TypeNull || typ == lc.v.Type():
			typ = lc.v.Type()
			k.list = append(k.list, lc.v)
		default:
			return nil
		}
	}
	if typ == sqlval.TypeNull {
		return nil
	}
	return k
}

// holds reports whether a comparison result satisfies op.
func holds(op sqlparser.BinOpKind, c int) bool {
	switch op {
	case sqlparser.OpEq:
		return c == 0
	case sqlparser.OpNe:
		return c != 0
	case sqlparser.OpLt:
		return c < 0
	case sqlparser.OpLe:
		return c <= 0
	case sqlparser.OpGt:
		return c > 0
	default:
		return c >= 0
	}
}

type cmpKernel struct {
	op   sqlparser.BinOpKind
	l, r operand
}

func (k *cmpKernel) tri(row []sqlval.Value) (sqlval.Tri, bool) {
	c, ok := sqlval.TryCompare(k.l.get(row), k.r.get(row))
	return sqlval.TriOf(holds(k.op, c)), ok
}

type betweenKernel struct {
	e, lo, hi operand
	not       bool
}

func (k *betweenKernel) tri(row []sqlval.Value) (sqlval.Tri, bool) {
	v := k.e.get(row)
	c1, ok1 := sqlval.TryCompare(v, k.lo.get(row))
	c2, ok2 := sqlval.TryCompare(v, k.hi.get(row))
	return sqlval.TriOf((c1 >= 0 && c2 <= 0) != k.not), ok1 && ok2
}

// inKernel is `e [NOT] IN (list)` over non-NULL constants of one type;
// sawNull records a NULL in the list, which turns a miss into UNKNOWN.
// It declines a row value that does not compare with the list's type.
type inKernel struct {
	e       operand
	list    []sqlval.Value
	sawNull bool
	not     bool
}

func (k *inKernel) tri(row []sqlval.Value) (sqlval.Tri, bool) {
	v := k.e.get(row)
	for _, lv := range k.list {
		c, ok := sqlval.TryCompare(v, lv)
		if !ok {
			return sqlval.Unknown, false
		}
		if c == 0 {
			return sqlval.TriOf(!k.not), true
		}
	}
	if k.sawNull {
		return sqlval.Unknown, true
	}
	return sqlval.TriOf(k.not), true
}

type isNullKernel struct {
	slot int
	not  bool
}

func (k *isNullKernel) tri(row []sqlval.Value) (sqlval.Tri, bool) {
	return sqlval.TriOf(row[k.slot].IsNull() != k.not), true
}

type notKernel struct{ k kernel }

func (k *notKernel) tri(row []sqlval.Value) (sqlval.Tri, bool) {
	t, ok := k.k.tri(row)
	return t.Not(), ok
}

// andKernel evaluates both sides, like cAnd: a False left side does not
// excuse the right side, whose error the generic tree must still report.
type andKernel struct{ l, r kernel }

func (k *andKernel) tri(row []sqlval.Value) (sqlval.Tri, bool) {
	l, ok := k.l.tri(row)
	if !ok {
		return sqlval.Unknown, false
	}
	r, ok := k.r.tri(row)
	return l.And(r), ok
}

type orKernel struct{ l, r kernel }

func (k *orKernel) tri(row []sqlval.Value) (sqlval.Tri, bool) {
	l, ok := k.l.tri(row)
	if !ok {
		return sqlval.Unknown, false
	}
	r, ok := k.r.tri(row)
	return l.Or(r), ok
}
