package oracle

// sqlfunc.go — the value rules: arithmetic, negation, scalar functions,
// aggregates and LIKE. INTEGER arithmetic and SUM are computed exactly in
// math/big and fail when the result leaves int64; a DOUBLE SUM or AVG is
// the exact rational sum rounded once to float64.

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"strconv"
	"strings"
	"unicode"

	"crosse/internal/sqlparser"
	"crosse/internal/sqlval"
)

var (
	errIntRange   = errors.New("oracle: integer out of range")
	errFloatRange = errors.New("oracle: DOUBLE out of range")
	errDivZero    = errors.New("oracle: division by zero")
	minInt64      = big.NewInt(math.MinInt64)
	maxInt64      = big.NewInt(math.MaxInt64)
)

// fromBig returns z as an INTEGER, or errIntRange when it leaves int64.
func fromBig(z *big.Int) (sqlval.Value, error) {
	if z.Cmp(minInt64) < 0 || z.Cmp(maxInt64) > 0 {
		return sqlval.Null, errIntRange
	}
	return sqlval.NewInt(z.Int64()), nil
}

func numeric(v sqlval.Value) bool {
	return v.Type() == sqlval.TypeInt || v.Type() == sqlval.TypeFloat
}

// arith applies + - * / % to two values. NULL in, NULL out. Two INTEGERs
// give an INTEGER: / truncates toward zero and % takes the dividend's
// sign, as in PostgreSQL, and a result outside int64 is an error. Any
// DOUBLE operand makes the operation DOUBLE. Division or remainder by zero
// is an error for both types.
//
// A DOUBLE + - * / of two finite operands whose result is infinite fails
// with errFloatRange, as PostgreSQL's float8 overflow does; with an
// infinite operand IEEE 754 holds (Infinity - Infinity is NaN). Dialect:
// PostgreSQL has no DOUBLE %; here % is the C fmod.
func arith(op sqlparser.BinOpKind, l, r sqlval.Value) (sqlval.Value, error) {
	if l.IsNull() || r.IsNull() {
		return sqlval.Null, nil
	}
	if !numeric(l) || !numeric(r) {
		return sqlval.Null, fmt.Errorf("oracle: arithmetic on %s and %s", l.Type(), r.Type())
	}
	if l.Type() == sqlval.TypeInt && r.Type() == sqlval.TypeInt {
		a, b := big.NewInt(l.Int()), big.NewInt(r.Int())
		z := new(big.Int)
		switch op {
		case sqlparser.OpAdd:
			z.Add(a, b)
		case sqlparser.OpSub:
			z.Sub(a, b)
		case sqlparser.OpMul:
			z.Mul(a, b)
		case sqlparser.OpDiv:
			if b.Sign() == 0 {
				return sqlval.Null, errDivZero
			}
			z.Quo(a, b) // truncated
		default:
			if b.Sign() == 0 {
				return sqlval.Null, errDivZero
			}
			z.Rem(a, b) // sign of a
		}
		return fromBig(z)
	}
	a, b := toFloat(l), toFloat(r)
	if op == sqlparser.OpMod {
		if b == 0 {
			return sqlval.Null, errDivZero
		}
		return sqlval.NewFloat(math.Mod(a, b)), nil
	}
	var z float64
	switch op {
	case sqlparser.OpAdd:
		z = a + b
	case sqlparser.OpSub:
		z = a - b
	case sqlparser.OpMul:
		z = a * b
	default:
		if b == 0 {
			return sqlval.Null, errDivZero
		}
		z = a / b
	}
	finite := func(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }
	if !math.IsInf(z, 0) || !finite(a) || !finite(b) {
		return sqlval.NewFloat(z), nil
	}
	return sqlval.Null, errFloatRange
}

func toFloat(v sqlval.Value) float64 {
	if v.Type() == sqlval.TypeInt {
		return float64(v.Int())
	}
	return v.Float()
}

// negate is unary minus: -(-2^63) is out of range.
func negate(v sqlval.Value) (sqlval.Value, error) {
	switch v.Type() {
	case sqlval.TypeNull:
		return sqlval.Null, nil
	case sqlval.TypeInt:
		return fromBig(new(big.Int).Neg(big.NewInt(v.Int())))
	case sqlval.TypeFloat:
		return sqlval.NewFloat(-v.Float()), nil
	}
	return sqlval.Null, fmt.Errorf("oracle: cannot negate %s", v.Type())
}

// intArg reads an integer argument (LIMIT, OFFSET, ROUND's scale,
// SUBSTR's start and length) through sqlval's INTEGER coercion: an
// integral DOUBLE or a numeric text counts, anything else is an error.
// Dialect: PostgreSQL rejects a text or DOUBLE LIMIT.
func intArg(v sqlval.Value) (int64, error) {
	i, err := sqlval.Coerce(v, sqlval.TypeInt)
	return i.Int(), err
}

// scalarFunc applies a scalar function. Text functions render a non-text
// argument with sqlval.Value.String. Dialect: PostgreSQL counts and cuts
// text in characters; here LENGTH and SUBSTR count bytes.
func scalarFunc(name string, args []sqlval.Value) (sqlval.Value, error) {
	arity := func(lo, hi int) error {
		if len(args) < lo || len(args) > hi {
			return fmt.Errorf("oracle: %s takes %d to %d argument(s), got %d", name, lo, hi, len(args))
		}
		return nil
	}
	switch name {
	case "UPPER", "LOWER", "LENGTH", "TRIM":
		if err := arity(1, 1); err != nil {
			return sqlval.Null, err
		}
		if args[0].IsNull() {
			return sqlval.Null, nil
		}
		s := args[0].String()
		switch name {
		case "UPPER":
			return sqlval.NewString(strings.ToUpper(s)), nil
		case "LOWER":
			return sqlval.NewString(strings.ToLower(s)), nil
		case "LENGTH":
			return sqlval.NewInt(int64(len(s))), nil
		}
		// Dialect: PostgreSQL's TRIM removes spaces only; here it removes
		// all Unicode white space.
		return sqlval.NewString(strings.TrimFunc(s, unicode.IsSpace)), nil
	case "ABS":
		if err := arity(1, 1); err != nil {
			return sqlval.Null, err
		}
		v := args[0]
		switch v.Type() {
		case sqlval.TypeNull:
			return sqlval.Null, nil
		case sqlval.TypeInt:
			return fromBig(new(big.Int).Abs(big.NewInt(v.Int())))
		case sqlval.TypeFloat:
			return sqlval.NewFloat(math.Abs(v.Float())), nil
		}
		return sqlval.Null, fmt.Errorf("oracle: ABS on %s", v.Type())
	case "ROUND":
		return round(args)
	case "COALESCE":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return sqlval.Null, nil
	case "NULLIF":
		if err := arity(2, 2); err != nil {
			return sqlval.Null, err
		}
		if !args[0].IsNull() && !args[1].IsNull() && equalIgnoringErrors(args[0], args[1]) {
			return sqlval.Null, nil
		}
		return args[0], nil
	case "SUBSTR", "SUBSTRING":
		return substr(args)
	case "CONCAT":
		var b strings.Builder
		for _, a := range args {
			if !a.IsNull() {
				b.WriteString(a.String())
			}
		}
		return sqlval.NewString(b.String()), nil
	}
	return sqlval.Null, fmt.Errorf("oracle: no function %s", name)
}

// round is ROUND(x) and ROUND(x, digits). A number rounds half away from
// zero to a DOUBLE; a NULL x or digits gives NULL, and any other x is an
// error.
//
// Dialect: PostgreSQL's ROUND(x, n) rounds the decimal numeric; here x is
// scaled by 10^digits in DOUBLE, rounded, and scaled back, so a decimal
// that has no exact binary form can round the other way.
func round(args []sqlval.Value) (sqlval.Value, error) {
	if len(args) != 1 && len(args) != 2 {
		return sqlval.Null, fmt.Errorf("oracle: ROUND takes 1 or 2 arguments, got %d", len(args))
	}
	x := args[0]
	if x.IsNull() {
		return sqlval.Null, nil
	}
	if !numeric(x) {
		return sqlval.Null, fmt.Errorf("oracle: ROUND on %s", x.Type())
	}
	if len(args) == 1 {
		return sqlval.NewFloat(math.Round(toFloat(x))), nil
	}
	if args[1].IsNull() {
		return sqlval.Null, nil
	}
	digits, err := intArg(args[1])
	if err != nil {
		return sqlval.Null, err
	}
	// A scaled x past the largest DOUBLE means x is already integral in
	// units of 10^-digits: PostgreSQL returns it unchanged.
	f, scale := toFloat(x), math.Pow(10, float64(digits))
	scaled := f * scale
	if math.IsInf(scaled, 0) || math.IsNaN(scaled) {
		return sqlval.NewFloat(f), nil
	}
	return sqlval.NewFloat(math.Round(scaled) / scale), nil
}

// substr is SUBSTR(s, start[, n]): n bytes of s from 1-based byte start
// (to the end without n). A NULL argument gives NULL.
//
// Dialect: PostgreSQL counts positions before 1 against n — SUBSTR('abc',
// -5, 2) is empty and SUBSTR('abc', 0, 2) is 'a' — and rejects a negative
// n. Here a start before 1 reads as 1 (so both give 'ab'), and a negative
// n as 0.
func substr(args []sqlval.Value) (sqlval.Value, error) {
	if len(args) != 2 && len(args) != 3 {
		return sqlval.Null, fmt.Errorf("oracle: SUBSTR takes 2 or 3 arguments, got %d", len(args))
	}
	if args[0].IsNull() || args[1].IsNull() {
		return sqlval.Null, nil
	}
	s := args[0].String()
	start, err := intArg(args[1])
	if err != nil {
		return sqlval.Null, err
	}
	from := len(s)
	if start <= int64(len(s)) {
		from = int(max(start, 1)) - 1
	}
	if len(args) == 2 {
		return sqlval.NewString(s[from:]), nil
	}
	if args[2].IsNull() {
		return sqlval.Null, nil
	}
	n, err := intArg(args[2])
	if err != nil {
		return sqlval.Null, err
	}
	to := len(s)
	if n < int64(len(s)-from) {
		to = from + int(max(n, 0))
	}
	return sqlval.NewString(s[from:to]), nil
}

// like is SQL LIKE over bytes: '%' matches any run, '_' any one byte,
// every other byte itself. It fills the classic dynamic-programming table
// row by row, in time len(s)·len(p).
//
// Dialect: PostgreSQL's '_' matches one character, and '\' escapes the
// next pattern character; here '_' matches one byte and there is no
// escape.
func like(s, p string) bool {
	// prev[j] reports whether p[:j] matches the input consumed so far.
	prev := make([]bool, len(p)+1)
	prev[0] = true
	for j := 1; j <= len(p) && p[j-1] == '%'; j++ {
		prev[j] = true
	}
	cur := make([]bool, len(p)+1)
	for i := 0; i < len(s); i++ {
		cur[0] = false
		for j := 1; j <= len(p); j++ {
			switch p[j-1] {
			case '%':
				cur[j] = cur[j-1] || prev[j]
			case '_':
				cur[j] = prev[j-1]
			default:
				cur[j] = prev[j-1] && s[i] == p[j-1]
			}
		}
		prev, cur = cur, prev
	}
	return prev[len(p)]
}

// valueKey renders v so that two values get the same key exactly when
// they have the same type and compare equal: -0 and 0 share a key, as do
// all NaNs, but INTEGER 2 and DOUBLE 2.0 do not. DISTINCT, GROUP BY and
// DISTINCT aggregates group by it.
func valueKey(v sqlval.Value) string {
	s := v.String()
	if v.Type() == sqlval.TypeFloat && v.Float() == 0 {
		s = "0"
	}
	return strconv.Itoa(int(v.Type())) + strconv.Quote(s)
}

// isAggregate reports whether the upper-cased name is an aggregate.
func isAggregate(name string) bool {
	switch name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// aggregates appends e's aggregate calls to out, outermost first, without
// looking inside an aggregate's own arguments.
func aggregates(out []*sqlparser.FuncCall, e sqlparser.Expr) []*sqlparser.FuncCall {
	sqlparser.Walk(e, func(x sqlparser.Expr) bool {
		if fc, ok := x.(*sqlparser.FuncCall); ok && isAggregate(fc.Name) {
			out = append(out, fc)
			return false
		}
		return true
	})
	return out
}

// aggInput gathers one aggregate call's argument over a group: COUNT(*)
// counts rows, every other call keeps its argument's non-NULL values in
// arrival order.
type aggInput struct {
	call *sqlparser.FuncCall
	rows int64
	vals []sqlval.Value
}

func (a *aggInput) collect(s *scope) error {
	a.rows++
	if a.call.Star {
		return nil
	}
	if len(a.call.Args) != 1 {
		return fmt.Errorf("oracle: %s takes one argument", a.call.Name)
	}
	v, err := eval(a.call.Args[0], s)
	if err != nil || v.IsNull() {
		return err
	}
	a.vals = append(a.vals, v)
	return nil
}

// result computes the aggregate, as PostgreSQL does: COUNT of no values
// is 0, and every other aggregate of no values is NULL. DISTINCT keeps
// the first of each set of equal values (valueKey). SUM of INTEGERs is an
// INTEGER and fails past int64; SUM with any DOUBLE, and AVG, are DOUBLE.
// MIN and MAX order by sqlval.CompareForSort and keep the first of equal
// values.
func (a *aggInput) result() (sqlval.Value, error) {
	if a.call.Star {
		return sqlval.NewInt(a.rows), nil
	}
	vals := a.vals
	if a.call.Distinct {
		seen := map[string]bool{}
		vals = nil
		for _, v := range a.vals {
			if k := valueKey(v); !seen[k] {
				seen[k] = true
				vals = append(vals, v)
			}
		}
	}
	if a.call.Name == "COUNT" {
		return sqlval.NewInt(int64(len(vals))), nil
	}
	if len(vals) == 0 {
		return sqlval.Null, nil
	}
	switch a.call.Name {
	case "SUM", "AVG":
		return sumAvg(a.call.Name, vals)
	}
	best := vals[0]
	for _, v := range vals[1:] {
		c := sqlval.CompareForSort(v, best)
		if a.call.Name == "MIN" && c < 0 || a.call.Name == "MAX" && c > 0 {
			best = v
		}
	}
	return best, nil
}

// sumAvg is SUM or AVG of non-NULL numeric values. Finite values sum
// exactly as rationals. A NaN, or infinities of both signs, make the sum
// NaN; otherwise an infinity is the sum. Before any of those arrives, a
// partial sum that rounds past the largest DOUBLE is an overflow error,
// as in PostgreSQL, which checks its float8 running sum in arrival order.
func sumAvg(name string, vals []sqlval.Value) (sqlval.Value, error) {
	allInt := true
	exact := new(big.Rat)
	var posInf, negInf, nan bool
	for _, v := range vals {
		switch v.Type() {
		case sqlval.TypeInt:
			exact.Add(exact, new(big.Rat).SetInt64(v.Int()))
		case sqlval.TypeFloat:
			allInt = false
			switch f := v.Float(); {
			case math.IsNaN(f):
				nan = true
			case math.IsInf(f, 1):
				posInf = true
			case math.IsInf(f, -1):
				negInf = true
			default:
				exact.Add(exact, new(big.Rat).SetFloat64(f))
			}
		default:
			return sqlval.Null, fmt.Errorf("oracle: %s of %s", name, v.Type())
		}
		if !allInt && !nan && !posInf && !negInf {
			if f, _ := exact.Float64(); math.IsInf(f, 0) {
				return sqlval.Null, errFloatRange
			}
		}
	}
	switch {
	case nan || posInf && negInf:
		return sqlval.NewFloat(math.NaN()), nil
	case posInf:
		return sqlval.NewFloat(math.Inf(1)), nil
	case negInf:
		return sqlval.NewFloat(math.Inf(-1)), nil
	}
	if name == "AVG" {
		exact.Quo(exact, new(big.Rat).SetInt64(int64(len(vals))))
	} else if allInt {
		return fromBig(exact.Num())
	}
	f, _ := exact.Float64()
	return sqlval.NewFloat(f), nil
}
