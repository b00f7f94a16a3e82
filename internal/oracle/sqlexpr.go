package oracle

// sqlexpr.go — the SQL expression evaluator: column references resolved
// by name in a scope, three-valued logic, comparisons, IN, BETWEEN, CASE
// and the dispatch to arithmetic, LIKE and functions (sqlfunc.go).

import (
	"fmt"
	"strings"

	"crosse/internal/sqlparser"
	"crosse/internal/sqlval"
)

// scope resolves column references: cols and row are parallel. aggs holds
// a group's aggregate results, keyed by the call's SQL text.
type scope struct {
	cols []column
	row  []sqlval.Value
	aggs map[string]sqlval.Value
}

// lookup finds the value of a column reference, which must name exactly
// one column of the scope.
func (s *scope) lookup(qual, name string) (sqlval.Value, error) {
	found := -1
	for i, c := range s.cols {
		if !strings.EqualFold(c.name, name) || qual != "" && !strings.EqualFold(c.qual, qual) {
			continue
		}
		if found >= 0 {
			return sqlval.Null, fmt.Errorf("oracle: ambiguous column %s.%s", qual, name)
		}
		found = i
	}
	if found < 0 {
		return sqlval.Null, fmt.Errorf("oracle: unknown column %s.%s", qual, name)
	}
	return s.row[found], nil
}

// eval evaluates e in s. NULL is SQL's UNKNOWN where e is a predicate.
func eval(e sqlparser.Expr, s *scope) (sqlval.Value, error) {
	switch ex := e.(type) {
	case *sqlparser.Literal:
		return ex.Val, nil
	case *sqlparser.ColRef:
		return s.lookup(ex.Qualifier, ex.Name)
	case *sqlparser.BinExpr:
		return evalBin(ex, s)
	case *sqlparser.UnaryExpr:
		if ex.Op == "NOT" {
			t, err := evalBool(ex.E, s)
			return t.Not().Value(), err
		}
		v, err := eval(ex.E, s)
		if err != nil {
			return sqlval.Null, err
		}
		if ex.Op != "-" {
			return sqlval.Null, fmt.Errorf("oracle: unary %q", ex.Op)
		}
		return negate(v)
	case *sqlparser.IsNull:
		v, err := eval(ex.E, s)
		return sqlval.NewBool(v.IsNull() != ex.Not), err
	case *sqlparser.InList:
		return evalIn(ex, s)
	case *sqlparser.Between:
		return evalBetween(ex, s)
	case *sqlparser.FuncCall:
		if isAggregate(ex.Name) {
			v, ok := s.aggs[ex.SQL()]
			if !ok {
				return sqlval.Null, fmt.Errorf("oracle: aggregate %s outside a group", ex.SQL())
			}
			return v, nil
		}
		return evalScalarFunc(ex, s)
	case *sqlparser.CaseExpr:
		return evalCase(ex, s)
	default:
		return sqlval.Null, fmt.Errorf("oracle: unsupported expression %T", e)
	}
}

// evalBool evaluates a predicate: NULL is UNKNOWN, and any other value
// must read as a boolean (sqlval.Coerce: an integer is true when nonzero,
// a text when it spells a boolean).
func evalBool(e sqlparser.Expr, s *scope) (sqlval.Tri, error) {
	v, err := eval(e, s)
	if err != nil || v.IsNull() {
		return sqlval.Unknown, err
	}
	b, err := sqlval.Coerce(v, sqlval.TypeBool)
	if err != nil {
		return sqlval.Unknown, fmt.Errorf("oracle: predicate is not boolean: %w", err)
	}
	return sqlval.TriOf(b.Bool()), nil
}

func evalBin(ex *sqlparser.BinExpr, s *scope) (sqlval.Value, error) {
	if ex.Op == sqlparser.OpAnd || ex.Op == sqlparser.OpOr {
		// Both sides are evaluated, so an error on either fails the
		// expression whatever the other side says.
		l, err := evalBool(ex.L, s)
		if err != nil {
			return sqlval.Null, err
		}
		r, err := evalBool(ex.R, s)
		if err != nil {
			return sqlval.Null, err
		}
		if ex.Op == sqlparser.OpAnd {
			return l.And(r).Value(), nil
		}
		return l.Or(r).Value(), nil
	}
	l, err := eval(ex.L, s)
	if err != nil {
		return sqlval.Null, err
	}
	r, err := eval(ex.R, s)
	if err != nil {
		return sqlval.Null, err
	}
	switch ex.Op {
	case sqlparser.OpEq, sqlparser.OpNe, sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe:
		if l.IsNull() || r.IsNull() {
			return sqlval.Null, nil
		}
		c, err := sqlval.Compare(l, r)
		if err != nil {
			return sqlval.Null, err
		}
		switch ex.Op {
		case sqlparser.OpEq:
			return sqlval.NewBool(c == 0), nil
		case sqlparser.OpNe:
			return sqlval.NewBool(c != 0), nil
		case sqlparser.OpLt:
			return sqlval.NewBool(c < 0), nil
		case sqlparser.OpLe:
			return sqlval.NewBool(c <= 0), nil
		case sqlparser.OpGt:
			return sqlval.NewBool(c > 0), nil
		}
		return sqlval.NewBool(c >= 0), nil
	case sqlparser.OpAdd, sqlparser.OpSub, sqlparser.OpMul, sqlparser.OpDiv, sqlparser.OpMod:
		return arith(ex.Op, l, r)
	case sqlparser.OpConcat:
		// PostgreSQL: || with a NULL operand is NULL (CONCAT skips it).
		if l.IsNull() || r.IsNull() {
			return sqlval.Null, nil
		}
		return sqlval.NewString(l.String() + r.String()), nil
	case sqlparser.OpLike:
		if l.IsNull() || r.IsNull() {
			return sqlval.Null, nil
		}
		if l.Type() != sqlval.TypeString || r.Type() != sqlval.TypeString {
			return sqlval.Null, fmt.Errorf("oracle: LIKE on %s, %s", l.Type(), r.Type())
		}
		return sqlval.NewBool(like(l.Str(), r.Str())), nil
	default:
		return sqlval.Null, fmt.Errorf("oracle: unsupported operator %v", ex.Op)
	}
}

// equalIgnoringErrors reports a = b for IN lists, NULLIF and simple CASE,
// where an incomparable pair counts as unequal rather than an error.
// Dialect: PostgreSQL rejects `1 IN ('a')` as a type error.
func equalIgnoringErrors(a, b sqlval.Value) bool {
	c, err := sqlval.Compare(a, b)
	return err == nil && c == 0
}

// evalIn is e [NOT] IN (list): TRUE on a match, else UNKNOWN when the
// list holds a NULL, else FALSE (NOT flips TRUE and FALSE).
func evalIn(ex *sqlparser.InList, s *scope) (sqlval.Value, error) {
	v, err := eval(ex.E, s)
	if err != nil || v.IsNull() {
		return sqlval.Null, err
	}
	sawNull := false
	for _, le := range ex.List {
		lv, err := eval(le, s)
		if err != nil {
			return sqlval.Null, err
		}
		if lv.IsNull() {
			sawNull = true
		} else if equalIgnoringErrors(v, lv) {
			return sqlval.NewBool(!ex.Not), nil
		}
	}
	if sawNull {
		return sqlval.Null, nil
	}
	return sqlval.NewBool(ex.Not), nil
}

// evalBetween is lo <= e AND e <= hi, UNKNOWN when any of the three is
// NULL.
func evalBetween(ex *sqlparser.Between, s *scope) (sqlval.Value, error) {
	var vals [3]sqlval.Value
	for i, e := range []sqlparser.Expr{ex.E, ex.Lo, ex.Hi} {
		v, err := eval(e, s)
		if err != nil {
			return sqlval.Null, err
		}
		vals[i] = v
	}
	v, lo, hi := vals[0], vals[1], vals[2]
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
	return sqlval.NewBool((c1 >= 0 && c2 <= 0) != ex.Not), nil
}

// evalCase returns the THEN of the first WHEN that holds — equals the
// operand in the simple form (a NULL never equals), is TRUE in the
// searched form — else the ELSE, else NULL.
func evalCase(ex *sqlparser.CaseExpr, s *scope) (sqlval.Value, error) {
	var op sqlval.Value
	if ex.Operand != nil {
		var err error
		if op, err = eval(ex.Operand, s); err != nil {
			return sqlval.Null, err
		}
	}
	for _, w := range ex.Whens {
		var hit bool
		if ex.Operand != nil {
			wv, err := eval(w.Cond, s)
			if err != nil {
				return sqlval.Null, err
			}
			hit = !op.IsNull() && !wv.IsNull() && equalIgnoringErrors(op, wv)
		} else {
			t, err := evalBool(w.Cond, s)
			if err != nil {
				return sqlval.Null, err
			}
			hit = t == sqlval.True
		}
		if hit {
			return eval(w.Then, s)
		}
	}
	if ex.Else != nil {
		return eval(ex.Else, s)
	}
	return sqlval.Null, nil
}

func evalScalarFunc(ex *sqlparser.FuncCall, s *scope) (sqlval.Value, error) {
	args := make([]sqlval.Value, len(ex.Args))
	for i, a := range ex.Args {
		v, err := eval(a, s)
		if err != nil {
			return sqlval.Null, err
		}
		args[i] = v
	}
	return scalarFunc(ex.Name, args)
}
