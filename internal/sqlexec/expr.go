// Package sqlexec evaluates parsed SQL statements against a sqldb.Database.
//
// Every expression a statement evaluates is compiled: CompileOpts lowers a
// parsed SELECT once into an immutable physical SelectPlan (compile.go) —
// column references resolved to dense row-slot offsets, expressions
// lowered to slot-resolved evaluator trees (cexpr) with constant LIKE
// patterns pre-compiled, WHERE conjuncts bound to the earliest pipeline
// step that covers them, equality-against-constant conjuncts pushed into
// sqldb.FilteredRelation index seeks, equi-joins planned as hash joins
// and ORDER BY keys as slots of the buffered output row, which a LIMIT
// bounds by selection (order.go) — and the plan executes as a
// push-based streaming pipeline over reused rows on one serial driver
// (run.go). A predicate over slots and constants also gets a typed kernel
// (kernel.go) that answers most rows without building a Value, and
// declines the rest to the generic tree; a source's own conjuncts run on
// the row as scanned, before it is copied into the joined-row buffer.
// Options carries only the partial-results policy. EvalSelectOpts/Exec wrap
// compile-then-run; internal/core caches compiled plans per SESQL shape
// and binds each request's literals into them (bind.go). INSERT … VALUES,
// UPDATE … SET and UPDATE/DELETE predicates compile through CompileExpr
// and CompilePredicate (exec.go).
//
// Compilation makes column-reference errors data-independent: a SELECT,
// UPDATE or DELETE naming an unknown or ambiguous column fails up front,
// even over an empty table. Function names, arities and value-type errors
// stay evaluation-time.
//
// The package has one evaluator, the compiled cexpr trees. The parity
// suites check it against internal/oracle, a test-only materialising
// interpreter with its own value rules, which shares no code with this
// package below the parser.
//
// This file holds the value-level functions the compiled nodes call:
// arithmetic, scalar functions, and aggregate accumulation.
package sqlexec

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strings"

	"crosse/internal/sqlparser"
	"crosse/internal/sqlval"
)

// ScopeCol names one column visible to an expression: its source qualifier
// (table name or alias) and column name.
type ScopeCol struct {
	Qualifier string
	Name      string
}

// refName renders a column reference for an error message.
func refName(qual, name string) string {
	if qual != "" {
		return qual + "." + name
	}
	return name
}

// errIntRange is the error of INTEGER arithmetic whose exact result does
// not fit in an int64: + - * /, unary minus, ABS and SUM never wrap.
var errIntRange = errors.New("sqlexec: integer out of range")

// errFloatRange is the error of DOUBLE + - * / and of a DOUBLE SUM or
// AVG whose result leaves the DOUBLE range on finite operands, as
// PostgreSQL's float8 raises "value out of range: overflow". A result
// infinite through an infinite operand stays that infinity (or NaN).
var errFloatRange = errors.New("sqlexec: DOUBLE out of range")

// negate is unary minus over a numeric value; NULL stays NULL.
func negate(v sqlval.Value) (sqlval.Value, error) {
	switch v.Type() {
	case sqlval.TypeNull:
		return sqlval.Null, nil
	case sqlval.TypeInt:
		if v.Int() == math.MinInt64 {
			return sqlval.Null, errIntRange
		}
		return sqlval.NewInt(-v.Int()), nil
	case sqlval.TypeFloat:
		return sqlval.NewFloat(-v.Float()), nil
	default:
		return sqlval.Null, fmt.Errorf("sqlexec: cannot negate %s", v.Type())
	}
}

// intArg reads an integer argument (LIMIT, OFFSET, ROUND's scale,
// SUBSTR's start and length) through the INTEGER coercion, so an
// integral DOUBLE or a numeric string counts and anything else fails.
func intArg(v sqlval.Value) (int64, error) {
	i, err := sqlval.Coerce(v, sqlval.TypeInt)
	return i.Int(), err
}

func evalArith(op sqlparser.BinOpKind, l, r sqlval.Value) (sqlval.Value, error) {
	if l.IsNull() || r.IsNull() {
		return sqlval.Null, nil
	}
	numeric := func(v sqlval.Value) bool {
		return v.Type() == sqlval.TypeInt || v.Type() == sqlval.TypeFloat
	}
	if !numeric(l) || !numeric(r) {
		return sqlval.Null, fmt.Errorf("sqlexec: arithmetic on non-numeric values %s, %s", l.Type(), r.Type())
	}
	if l.Type() == sqlval.TypeInt && r.Type() == sqlval.TypeInt {
		a, b := l.Int(), r.Int()
		switch op {
		case sqlparser.OpAdd:
			if s := a + b; (a^s)&(b^s) >= 0 {
				return sqlval.NewInt(s), nil
			}
			return sqlval.Null, errIntRange
		case sqlparser.OpSub:
			if d := a - b; (a^b)&(a^d) >= 0 {
				return sqlval.NewInt(d), nil
			}
			return sqlval.Null, errIntRange
		case sqlparser.OpMul:
			p := a * b
			if a != 0 && (p/a != b || a == -1 && b == math.MinInt64) {
				return sqlval.Null, errIntRange
			}
			return sqlval.NewInt(p), nil
		case sqlparser.OpDiv:
			if b == 0 {
				return sqlval.Null, fmt.Errorf("sqlexec: division by zero")
			}
			if a == math.MinInt64 && b == -1 {
				return sqlval.Null, errIntRange
			}
			return sqlval.NewInt(a / b), nil
		default:
			if b == 0 {
				return sqlval.Null, fmt.Errorf("sqlexec: division by zero")
			}
			return sqlval.NewInt(a % b), nil
		}
	}
	a, b := l.Float(), r.Float()
	var f float64
	switch op {
	case sqlparser.OpAdd:
		f = a + b
	case sqlparser.OpSub:
		f = a - b
	case sqlparser.OpMul:
		f = a * b
	case sqlparser.OpDiv:
		if b == 0 {
			return sqlval.Null, fmt.Errorf("sqlexec: division by zero")
		}
		f = a / b
	default:
		if b == 0 {
			return sqlval.Null, fmt.Errorf("sqlexec: division by zero")
		}
		return sqlval.NewFloat(math.Mod(a, b)), nil
	}
	if math.IsInf(f, 0) && !math.IsInf(a, 0) && !math.IsInf(b, 0) {
		return sqlval.Null, errFloatRange
	}
	return sqlval.NewFloat(f), nil
}

// isAggregate reports whether the (upper-cased) function name is an
// aggregate.
func isAggregate(name string) bool {
	switch name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// aggregateCalls appends the aggregate calls in e to out, in pre-order.
// An aggregate's own arguments are not searched; scalar function
// arguments are.
func aggregateCalls(out []*sqlparser.FuncCall, e sqlparser.Expr) []*sqlparser.FuncCall {
	sqlparser.Walk(e, func(x sqlparser.Expr) bool {
		if fc, ok := x.(*sqlparser.FuncCall); ok && isAggregate(fc.Name) {
			out = append(out, fc)
			return false
		}
		return true
	})
	return out
}

// applyScalarFunc applies a scalar function to already-evaluated
// arguments (cFunc). Name and arity validation happens here, at
// evaluation time.
func applyScalarFunc(name string, args []sqlval.Value) (sqlval.Value, error) {
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("sqlexec: %s expects %d argument(s), got %d", name, n, len(args))
		}
		return nil
	}
	switch name {
	case "UPPER":
		if err := need(1); err != nil {
			return sqlval.Null, err
		}
		if args[0].IsNull() {
			return sqlval.Null, nil
		}
		return sqlval.NewString(strings.ToUpper(args[0].String())), nil
	case "LOWER":
		if err := need(1); err != nil {
			return sqlval.Null, err
		}
		if args[0].IsNull() {
			return sqlval.Null, nil
		}
		return sqlval.NewString(strings.ToLower(args[0].String())), nil
	case "LENGTH":
		if err := need(1); err != nil {
			return sqlval.Null, err
		}
		if args[0].IsNull() {
			return sqlval.Null, nil
		}
		return sqlval.NewInt(int64(len(args[0].String()))), nil
	case "TRIM":
		if err := need(1); err != nil {
			return sqlval.Null, err
		}
		if args[0].IsNull() {
			return sqlval.Null, nil
		}
		return sqlval.NewString(strings.TrimSpace(args[0].String())), nil
	case "ABS":
		if err := need(1); err != nil {
			return sqlval.Null, err
		}
		switch args[0].Type() {
		case sqlval.TypeNull:
			return sqlval.Null, nil
		case sqlval.TypeInt:
			if args[0].Int() < 0 {
				return negate(args[0])
			}
			return args[0], nil
		case sqlval.TypeFloat:
			return sqlval.NewFloat(math.Abs(args[0].Float())), nil
		default:
			return sqlval.Null, fmt.Errorf("sqlexec: ABS on %s", args[0].Type())
		}
	case "ROUND":
		if len(args) != 1 {
			if err := need(2); err != nil {
				return sqlval.Null, err
			}
		}
		switch args[0].Type() {
		case sqlval.TypeNull:
			return sqlval.Null, nil
		case sqlval.TypeInt, sqlval.TypeFloat:
		default:
			return sqlval.Null, fmt.Errorf("sqlexec: ROUND on %s", args[0].Type())
		}
		if len(args) == 1 {
			return sqlval.NewFloat(math.Round(args[0].Float())), nil
		}
		if args[1].IsNull() {
			return sqlval.Null, nil
		}
		digits, err := intArg(args[1])
		if err != nil {
			return sqlval.Null, err
		}
		// Where x·10^digits leaves the DOUBLE range, x has no digits at
		// that scale to round away: it is its own answer.
		x, scale := args[0].Float(), math.Pow(10, float64(digits))
		if scaled := x * scale; !math.IsInf(scaled, 0) && !math.IsNaN(scaled) {
			x = math.Round(scaled) / scale
		}
		return sqlval.NewFloat(x), nil
	case "COALESCE":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return sqlval.Null, nil
	case "NULLIF":
		if err := need(2); err != nil {
			return sqlval.Null, err
		}
		if !args[0].IsNull() && !args[1].IsNull() {
			if c, err := sqlval.Compare(args[0], args[1]); err == nil && c == 0 {
				return sqlval.Null, nil
			}
		}
		return args[0], nil
	case "SUBSTR", "SUBSTRING":
		if len(args) != 2 && len(args) != 3 {
			return sqlval.Null, fmt.Errorf("sqlexec: SUBSTR expects 2 or 3 arguments")
		}
		if args[0].IsNull() || args[1].IsNull() {
			return sqlval.Null, nil
		}
		str := args[0].String()
		from, err := intArg(args[1])
		if err != nil {
			return sqlval.Null, err
		}
		start := int(min(max(from, 1)-1, int64(len(str)))) // SQL is 1-based
		end := len(str)
		if len(args) == 3 {
			if args[2].IsNull() {
				return sqlval.Null, nil
			}
			n, err := intArg(args[2])
			if err != nil {
				return sqlval.Null, err
			}
			end = start + int(min(max(n, 0), int64(len(str)-start)))
		}
		return sqlval.NewString(str[start:end]), nil
	case "CONCAT":
		var b strings.Builder
		for _, a := range args {
			if !a.IsNull() {
				b.WriteString(a.String())
			}
		}
		return sqlval.NewString(b.String()), nil
	default:
		return sqlval.Null, fmt.Errorf("sqlexec: unknown function %s", name)
	}
}

// neumaierAdd adds x into the compensated accumulator (s, c): s carries the
// running sum, c the running compensation for the low-order bits s lost.
func neumaierAdd(s, c, x float64) (float64, float64) {
	t := s + x
	if math.Abs(s) >= math.Abs(x) {
		c += (s - t) + x
	} else {
		c += (x - t) + s
	}
	return t, c
}

// aggState accumulates one aggregate over a group, fed by the serial
// grouped sink in arrival order.
type aggState struct {
	call  *sqlparser.FuncCall
	count int64
	// (sumHi, sumLo) is the exact INTEGER sum as a two's-complement
	// 128-bit pair, so only a final sum outside int64 is an error.
	sumHi int64
	sumLo uint64
	// (sum, comp) is the float SUM/AVG as one Neumaier-compensated
	// accumulator: sum is the running sum, comp the bits it lost.
	sum, comp float64
	isInt     bool
	first     bool
	min       sqlval.Value
	max       sqlval.Value
	seen      map[string]struct{} // DISTINCT support
	keyBuf    []byte              // scratch for DISTINCT keys
}

// newAggState starts an aggregate.
func newAggState(call *sqlparser.FuncCall) *aggState {
	st := &aggState{call: call, isInt: true, first: true}
	if call.Distinct {
		st.seen = map[string]struct{}{}
	}
	return st
}

// addValue accumulates one already-evaluated argument value.
func (a *aggState) addValue(v sqlval.Value) error {
	if v.IsNull() {
		return nil // aggregates skip NULLs
	}
	if a.seen != nil {
		// Allocation-free probe: the string conversion in the map index
		// does not escape, and only genuinely new values are stored.
		a.keyBuf = sqlval.AppendKey(a.keyBuf[:0], v)
		if _, dup := a.seen[string(a.keyBuf)]; dup {
			return nil
		}
		a.seen[string(a.keyBuf)] = struct{}{}
	}
	a.count++
	switch a.call.Name {
	case "SUM", "AVG":
		var x float64
		switch v.Type() {
		case sqlval.TypeInt:
			a.addInt(v.Int())
			x = float64(v.Int())
		case sqlval.TypeFloat:
			a.isInt = false
			x = v.Float()
		default:
			return fmt.Errorf("sqlexec: %s on non-numeric value", a.call.Name)
		}
		prev := a.sum
		a.sum, a.comp = neumaierAdd(a.sum, a.comp, x)
		if math.IsInf(a.sum, 0) && !math.IsInf(prev, 0) && !math.IsInf(x, 0) {
			return errFloatRange
		}
	case "MIN":
		if a.first || sqlval.CompareForSort(v, a.min) < 0 {
			a.min = v
		}
	case "MAX":
		if a.first || sqlval.CompareForSort(v, a.max) > 0 {
			a.max = v
		}
	}
	a.first = false
	return nil
}

// addInt adds x into the exact INTEGER sum: the 128-bit pair (x>>63, x).
func (a *aggState) addInt(x int64) {
	var carry uint64
	a.sumLo, carry = bits.Add64(a.sumLo, uint64(x), 0)
	a.sumHi += x>>63 + int64(carry)
}

// sumFloat is the compensated float sum. An infinite running sum is the
// answer as it stands: its compensation computed Inf − Inf, which is NaN.
func (a *aggState) sumFloat() float64 {
	if math.IsInf(a.sum, 0) {
		return a.sum
	}
	return a.sum + a.comp
}

// result is the aggregate's final value. An INTEGER SUM outside int64
// fails with errIntRange.
func (a *aggState) result() (sqlval.Value, error) {
	if a.count == 0 && a.call.Name != "COUNT" {
		return sqlval.Null, nil
	}
	switch a.call.Name {
	case "COUNT":
		return sqlval.NewInt(a.count), nil
	case "SUM":
		if !a.isInt {
			return sqlval.NewFloat(a.sumFloat()), nil
		}
		if a.sumHi != int64(a.sumLo)>>63 {
			return sqlval.Null, errIntRange
		}
		return sqlval.NewInt(int64(a.sumLo)), nil
	case "AVG":
		return sqlval.NewFloat(a.sumFloat() / float64(a.count)), nil
	case "MIN":
		return a.min, nil
	case "MAX":
		return a.max, nil
	default:
		return sqlval.Null, nil
	}
}
