package sqlparser

import "slices"

// eachChild calls fn with a pointer to each child slot of e, in source
// order. It is the only code that lists an expression's children: Walk
// reads the slots, Rewrite writes those of a copy. An absent CASE operand
// or ELSE arrives as a nil slot.
func eachChild(e Expr, fn func(*Expr)) {
	switch x := e.(type) {
	case *BinExpr:
		fn(&x.L)
		fn(&x.R)
	case *UnaryExpr:
		fn(&x.E)
	case *IsNull:
		fn(&x.E)
	case *InList:
		fn(&x.E)
		for i := range x.List {
			fn(&x.List[i])
		}
	case *Between:
		fn(&x.E)
		fn(&x.Lo)
		fn(&x.Hi)
	case *FuncCall:
		for i := range x.Args {
			fn(&x.Args[i])
		}
	case *CaseExpr:
		fn(&x.Operand)
		for i := range x.Whens {
			fn(&x.Whens[i].Cond)
			fn(&x.Whens[i].Then)
		}
		fn(&x.Else)
	}
}

// Walk visits e and its subexpressions in pre-order, left to right. When
// fn returns false, the node's children are skipped. A nil e visits
// nothing.
func Walk(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	eachChild(e, func(c *Expr) { Walk(*c, fn) })
}

// Rewrite returns a copy of e in which each subtree that fn replaces
// (fn returns the replacement and true) is swapped for its replacement.
// Subtrees fn keeps are copied node by node, pre-order, so e itself is
// never modified; leaves are immutable and shared.
func Rewrite(e Expr, fn func(Expr) (Expr, bool)) Expr {
	if e == nil {
		return nil
	}
	if r, ok := fn(e); ok {
		return r
	}
	c := shallowCopy(e)
	eachChild(c, func(p *Expr) { *p = Rewrite(*p, fn) })
	return c
}

// shallowCopy copies an inner node and its child slices, so that writing
// the copy's child slots leaves e untouched.
func shallowCopy(e Expr) Expr {
	switch x := e.(type) {
	case *BinExpr:
		c := *x
		return &c
	case *UnaryExpr:
		c := *x
		return &c
	case *IsNull:
		c := *x
		return &c
	case *InList:
		c := *x
		c.List = slices.Clone(x.List)
		return &c
	case *Between:
		c := *x
		return &c
	case *FuncCall:
		c := *x
		c.Args = slices.Clone(x.Args)
		return &c
	case *CaseExpr:
		c := *x
		c.Whens = slices.Clone(x.Whens)
		return &c
	}
	return e
}

// ColRefs lists the column references in e, in pre-order.
func ColRefs(e Expr) []*ColRef {
	var refs []*ColRef
	Walk(e, func(x Expr) bool {
		if cr, ok := x.(*ColRef); ok {
			refs = append(refs, cr)
		}
		return true
	})
	return refs
}
