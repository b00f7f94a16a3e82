// Package sqlval defines the value domain of the relational engine:
// typed scalar values, NULL, three-valued logic, comparison, and coercion
// rules. Every layer above storage (expressions, executor, SESQL pipeline)
// exchanges rows as []sqlval.Value.
package sqlval

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Type enumerates the scalar types supported by the engine.
type Type int

const (
	// TypeNull is the type of the untyped NULL value.
	TypeNull Type = iota
	// TypeInt is a 64-bit signed integer.
	TypeInt
	// TypeFloat is a 64-bit IEEE-754 float.
	TypeFloat
	// TypeString is a UTF-8 string.
	TypeString
	// TypeBool is a boolean.
	TypeBool
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return "INTEGER"
	case TypeFloat:
		return "DOUBLE"
	case TypeString:
		return "TEXT"
	case TypeBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// ParseType maps a SQL type name (as written in DDL) to a Type.
// Unknown names report an error so DDL typos fail loudly.
func ParseType(name string) (Type, error) {
	switch strings.ToUpper(name) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT", "SERIAL":
		return TypeInt, nil
	case "FLOAT", "DOUBLE", "REAL", "NUMERIC", "DECIMAL":
		return TypeFloat, nil
	case "TEXT", "VARCHAR", "CHAR", "STRING", "CHARACTER":
		return TypeString, nil
	case "BOOL", "BOOLEAN":
		return TypeBool, nil
	default:
		return TypeNull, fmt.Errorf("sqlval: unknown type name %q", name)
	}
}

// Value is a single scalar cell. The zero Value is NULL.
//
// A Value is 32 bytes: the type, one 8-byte payload that holds the
// int64, the float64 bits or the bool (as 0 or 1), and the string. The
// accessors read the payload only for their own type: Int and Bool return
// zero for any other type, Float widens an INTEGER and returns zero for
// any other type, and Str returns "" for anything but TEXT.
type Value struct {
	typ Type
	n   uint64
	s   string
}

// Null is the NULL value.
var Null = Value{}

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{typ: TypeInt, n: uint64(v)} }

// NewFloat returns a float value.
func NewFloat(v float64) Value { return Value{typ: TypeFloat, n: math.Float64bits(v)} }

// NewString returns a string value.
func NewString(v string) Value { return Value{typ: TypeString, s: v} }

// NewBool returns a boolean value.
func NewBool(v bool) Value {
	if v {
		return Value{typ: TypeBool, n: 1}
	}
	return Value{typ: TypeBool}
}

// Type reports the type of the value.
func (v Value) Type() Type { return v.typ }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.typ == TypeNull }

// Int returns the integer payload of an INTEGER, and 0 for any other type.
func (v Value) Int() int64 {
	if v.typ != TypeInt {
		return 0
	}
	return int64(v.n)
}

// Float returns the payload of a DOUBLE, an INTEGER widened to float64,
// and 0 for any other type.
func (v Value) Float() float64 {
	switch v.typ {
	case TypeFloat:
		return math.Float64frombits(v.n)
	case TypeInt:
		return float64(int64(v.n))
	}
	return 0
}

// Str returns the payload of a TEXT, and "" for any other type.
func (v Value) Str() string { return v.s }

// Bool returns the payload of a BOOLEAN, and false for any other type.
func (v Value) Bool() bool { return v.typ == TypeBool && v.n != 0 }

// String renders the value the way result tables print it: AppendText's
// bytes, and a TEXT's own string without a copy.
func (v Value) String() string {
	if v.typ == TypeString {
		return v.s
	}
	var buf [32]byte
	return string(v.AppendText(buf[:0]))
}

// AppendText appends the String rendering of v to dst: NULL, a decimal
// INTEGER, a DOUBLE in shortest 'g' form (NaN, +Inf, -Inf), the TEXT
// itself, true or false.
func (v Value) AppendText(dst []byte) []byte {
	switch v.typ {
	case TypeNull:
		return append(dst, "NULL"...)
	case TypeInt:
		return strconv.AppendInt(dst, v.Int(), 10)
	case TypeFloat:
		return strconv.AppendFloat(dst, v.Float(), 'g', -1, 64)
	case TypeString:
		return append(dst, v.s...)
	case TypeBool:
		return strconv.AppendBool(dst, v.Bool())
	default:
		return append(dst, '?')
	}
}

// SQLLiteral renders the value as a SQL literal that re-parses to the same
// value. Strings are single-quoted with quote doubling. Used when the
// enrichment pipeline generates the final SQL of Fig. 6.
func (v Value) SQLLiteral() string {
	switch v.typ {
	case TypeNull:
		return "NULL"
	case TypeString:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case TypeBool:
		if v.Bool() {
			return "TRUE"
		}
		return "FALSE"
	default:
		return v.String()
	}
}

// Equal reports strict equality (same type class and same payload; ints and
// floats compare numerically). NULL is not Equal to anything, NULL included —
// use IsNull for NULL checks. Mirrors SQL's `=` semantics minus 3VL.
func (v Value) Equal(o Value) bool {
	c, err := Compare(v, o)
	return err == nil && c == 0
}

// numeric reports whether the value belongs to the numeric type class.
func (v Value) numeric() bool { return v.typ == TypeInt || v.typ == TypeFloat }

// ErrIncomparable is returned by Compare for cross-class comparisons.
type ErrIncomparable struct {
	A, B Type
}

func (e *ErrIncomparable) Error() string {
	return fmt.Sprintf("sqlval: cannot compare %s with %s", e.A, e.B)
}

// Compare orders two non-NULL values of the same type class.
// It returns -1, 0, +1. Comparing NULL or values of different classes
// (e.g. TEXT vs INTEGER) is an error; the expression layer turns that into
// a typed query error rather than a silent false. Numbers follow
// PostgreSQL's order: NaN equals NaN and sorts above every other number,
// so the order is total.
func Compare(a, b Value) (int, error) {
	if c, ok := TryCompare(a, b); ok {
		return c, nil
	}
	return 0, &ErrIncomparable{a.typ, b.typ}
}

// TryCompare is Compare without the error value: ok is false exactly
// where Compare fails — a NULL or two different classes. An INTEGER
// against a DOUBLE compares both widened to float64.
func TryCompare(a, b Value) (int, bool) {
	switch a.typ<<3 | b.typ {
	case TypeInt<<3 | TypeInt:
		return cmp.Compare(int64(a.n), int64(b.n)), true
	case TypeFloat<<3 | TypeFloat:
		return compareFloat(math.Float64frombits(a.n), math.Float64frombits(b.n)), true
	case TypeInt<<3 | TypeFloat, TypeFloat<<3 | TypeInt:
		return compareFloat(a.Float(), b.Float()), true
	case TypeString<<3 | TypeString:
		return strings.Compare(a.s, b.s), true
	case TypeBool<<3 | TypeBool:
		return cmp.Compare(a.n, b.n), true
	}
	return 0, false
}

// compareFloat orders two floats with NaN equal to NaN and above every
// other value; -0 equals +0.
func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	}
	switch an, bn := math.IsNaN(a), math.IsNaN(b); {
	case an && bn:
		return 0
	case an:
		return 1
	}
	return -1
}

// CompareForSort is a total order used by ORDER BY and DISTINCT: NULLs sort
// first, then type classes (numeric < string < bool), then value order.
func CompareForSort(a, b Value) int {
	an, bn := a.IsNull(), b.IsNull()
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	ca, cb := classOf(a.typ), classOf(b.typ)
	if ca != cb {
		if ca < cb {
			return -1
		}
		return 1
	}
	c, err := Compare(a, b)
	if err != nil {
		return 0
	}
	return c
}

func classOf(t Type) int {
	switch t {
	case TypeInt, TypeFloat:
		return 0
	case TypeString:
		return 1
	case TypeBool:
		return 2
	default:
		return -1
	}
}

// Coerce converts v to the target column type t, following lenient SQL
// assignment rules: ints widen to float, floats narrow to int when integral,
// numeric/bool to string via formatting, and strings parse to numerics or
// bools when well formed. NULL coerces to every type.
func Coerce(v Value, t Type) (Value, error) {
	if v.IsNull() {
		return Null, nil
	}
	if v.typ == t {
		return v, nil
	}
	switch t {
	case TypeInt:
		switch v.typ {
		case TypeFloat:
			f := v.Float()
			if f == math.Trunc(f) && !math.IsInf(f, 0) {
				return NewInt(int64(f)), nil
			}
			return Null, fmt.Errorf("sqlval: cannot coerce non-integral %v to INTEGER", f)
		case TypeString:
			i, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
			if err != nil {
				return Null, fmt.Errorf("sqlval: cannot coerce %q to INTEGER", v.s)
			}
			return NewInt(i), nil
		case TypeBool:
			return NewInt(int64(v.n)), nil
		}
	case TypeFloat:
		switch v.typ {
		case TypeInt:
			return NewFloat(v.Float()), nil
		case TypeString:
			f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
			if err != nil {
				return Null, fmt.Errorf("sqlval: cannot coerce %q to DOUBLE", v.s)
			}
			return NewFloat(f), nil
		}
	case TypeString:
		return NewString(v.String()), nil
	case TypeBool:
		switch v.typ {
		case TypeInt:
			return NewBool(v.n != 0), nil
		case TypeString:
			switch strings.ToLower(strings.TrimSpace(v.s)) {
			case "true", "t", "1":
				return NewBool(true), nil
			case "false", "f", "0":
				return NewBool(false), nil
			}
			return Null, fmt.Errorf("sqlval: cannot coerce %q to BOOLEAN", v.s)
		}
	}
	return Null, fmt.Errorf("sqlval: cannot coerce %s to %s", v.typ, t)
}

// Tri is SQL three-valued logic: True, False or Unknown.
type Tri int

// Three-valued logic constants.
const (
	False Tri = iota
	True
	Unknown
)

// TriOf lifts a Go bool into Tri.
func TriOf(b bool) Tri {
	if b {
		return True
	}
	return False
}

// And is 3VL conjunction.
func (t Tri) And(o Tri) Tri {
	switch {
	case t == False || o == False:
		return False
	case t == Unknown || o == Unknown:
		return Unknown
	default:
		return True
	}
}

// Or is 3VL disjunction.
func (t Tri) Or(o Tri) Tri {
	switch {
	case t == True || o == True:
		return True
	case t == Unknown || o == Unknown:
		return Unknown
	default:
		return False
	}
}

// Not is 3VL negation.
func (t Tri) Not() Tri {
	switch t {
	case True:
		return False
	case False:
		return True
	default:
		return Unknown
	}
}

// Value converts the Tri back to a SQL value (Unknown ⇒ NULL).
func (t Tri) Value() Value {
	switch t {
	case True:
		return NewBool(true)
	case False:
		return NewBool(false)
	default:
		return Null
	}
}

// String implements fmt.Stringer for diagnostics.
func (t Tri) String() string {
	switch t {
	case True:
		return "TRUE"
	case False:
		return "FALSE"
	default:
		return "UNKNOWN"
	}
}
