package sqlval

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		TypeNull:   "NULL",
		TypeInt:    "INTEGER",
		TypeFloat:  "DOUBLE",
		TypeString: "TEXT",
		TypeBool:   "BOOLEAN",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("Type(%d).String() = %q, want %q", typ, got, want)
		}
	}
}

func TestParseType(t *testing.T) {
	ok := map[string]Type{
		"int": TypeInt, "INTEGER": TypeInt, "BigInt": TypeInt, "serial": TypeInt,
		"float": TypeFloat, "DOUBLE": TypeFloat, "numeric": TypeFloat,
		"text": TypeString, "VARCHAR": TypeString, "char": TypeString,
		"bool": TypeBool, "BOOLEAN": TypeBool,
	}
	for name, want := range ok {
		got, err := ParseType(name)
		if err != nil || got != want {
			t.Errorf("ParseType(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseType("blob"); err == nil {
		t.Error("ParseType(blob) should fail")
	}
}

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() || v.Type() != TypeNull {
		t.Error("zero Value must be NULL")
	}
	if !Null.IsNull() {
		t.Error("Null must be NULL")
	}
}

func TestAccessors(t *testing.T) {
	if NewInt(42).Int() != 42 {
		t.Error("Int accessor")
	}
	if NewFloat(2.5).Float() != 2.5 {
		t.Error("Float accessor")
	}
	if NewInt(3).Float() != 3.0 {
		t.Error("Float widens int")
	}
	if NewString("x").Str() != "x" {
		t.Error("Str accessor")
	}
	if !NewBool(true).Bool() {
		t.Error("Bool accessor")
	}
}

// The payload is shared by INTEGER, DOUBLE and BOOLEAN, so every accessor
// must check the type: a wrong type reads zero, as it did when each type
// had its own field.
func TestAccessorsOnWrongType(t *testing.T) {
	for _, v := range []Value{Null, NewFloat(2.5), NewFloat(math.NaN()), NewString("7"), NewBool(true)} {
		if v.Int() != 0 {
			t.Errorf("%v.Int() = %d, want 0", v, v.Int())
		}
	}
	for _, v := range []Value{Null, NewString("2.5"), NewBool(true)} {
		if v.Float() != 0 {
			t.Errorf("%v.Float() = %v, want 0", v, v.Float())
		}
	}
	for _, v := range []Value{Null, NewInt(1), NewFloat(1), NewString("true")} {
		if v.Bool() {
			t.Errorf("%v.Bool() = true, want false", v)
		}
	}
	for _, v := range []Value{Null, NewInt(1), NewFloat(1), NewBool(true)} {
		if v.Str() != "" {
			t.Errorf("%v.Str() = %q, want \"\"", v, v.Str())
		}
	}
	if got := NewInt(math.MinInt64).Int(); got != math.MinInt64 {
		t.Errorf("MinInt64 round trip = %d", got)
	}
	if got := NewFloat(math.Copysign(0, -1)).Float(); got != 0 || !math.Signbit(got) {
		t.Errorf("-0 round trip = %v", got)
	}
	if !math.IsNaN(NewFloat(math.NaN()).Float()) {
		t.Error("NaN round trip")
	}
}

// A Value is 32 bytes: row buffers, arenas and join sides are arrays of
// them, so the size is part of the executor's per-row cost.
func TestValueIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

// NaN follows PostgreSQL: equal to itself, above every other number
// (+Inf and integers included), so Compare and CompareForSort stay total
// orders; TryCompare answers exactly where Compare does, and agrees.
func TestCompareNaN(t *testing.T) {
	nan := NewFloat(math.NaN())
	for _, o := range []Value{NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)), NewFloat(0), NewInt(math.MaxInt64), NewInt(math.MinInt64)} {
		if c, err := Compare(nan, o); err != nil || c != 1 {
			t.Errorf("Compare(NaN, %v) = %d, %v; want 1", o, c, err)
		}
		if c, err := Compare(o, nan); err != nil || c != -1 {
			t.Errorf("Compare(%v, NaN) = %d, %v; want -1", o, c, err)
		}
		if CompareForSort(nan, o) != 1 || CompareForSort(o, nan) != -1 {
			t.Errorf("CompareForSort NaN vs %v not above", o)
		}
	}
	if c, err := Compare(nan, NewFloat(-math.NaN())); err != nil || c != 0 {
		t.Errorf("Compare(NaN, NaN) = %d, %v; want 0", c, err)
	}
	if nan.Equal(NewFloat(1)) || !nan.Equal(nan) {
		t.Error("Equal must follow Compare on NaN")
	}
	vals := []Value{Null, nan, NewFloat(math.Inf(1)), NewFloat(math.Copysign(0, -1)), NewFloat(0), NewInt(0), NewInt(-3),
		NewString("a"), NewString(""), NewBool(false), NewBool(true)}
	for _, a := range vals {
		for _, b := range vals {
			want, werr := Compare(a, b)
			if got, ok := TryCompare(a, b); ok != (werr == nil) || got != want {
				t.Errorf("TryCompare(%v, %v) = %d, %t; Compare = %d, %v", a, b, got, ok, want, werr)
			}
		}
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{NewInt(-7), "-7"},
		{NewFloat(1.5), "1.5"},
		{NewString("hi"), "hi"},
		{NewBool(true), "true"},
		{NewBool(false), "false"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestSQLLiteral(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{NewInt(5), "5"},
		{NewString("a'b"), "'a''b'"},
		{NewString("plain"), "'plain'"},
		{NewBool(true), "TRUE"},
		{NewBool(false), "FALSE"},
	}
	for _, c := range cases {
		if got := c.v.SQLLiteral(); got != c.want {
			t.Errorf("SQLLiteral() = %q, want %q", got, c.want)
		}
	}
}

func TestCompareNumeric(t *testing.T) {
	c, err := Compare(NewInt(1), NewInt(2))
	if err != nil || c != -1 {
		t.Errorf("1<2: got %d, %v", c, err)
	}
	c, err = Compare(NewInt(2), NewFloat(2.0))
	if err != nil || c != 0 {
		t.Errorf("2==2.0: got %d, %v", c, err)
	}
	c, err = Compare(NewFloat(3.5), NewInt(3))
	if err != nil || c != 1 {
		t.Errorf("3.5>3: got %d, %v", c, err)
	}
	// Large int64 precision preserved in int-int path.
	big := int64(1) << 62
	c, err = Compare(NewInt(big), NewInt(big+1))
	if err != nil || c != -1 {
		t.Errorf("big ints compare exactly: got %d, %v", c, err)
	}
}

func TestCompareStringsAndBools(t *testing.T) {
	c, err := Compare(NewString("a"), NewString("b"))
	if err != nil || c != -1 {
		t.Errorf("a<b failed: %d %v", c, err)
	}
	c, err = Compare(NewBool(false), NewBool(true))
	if err != nil || c != -1 {
		t.Errorf("false<true failed: %d %v", c, err)
	}
	c, err = Compare(NewBool(true), NewBool(true))
	if err != nil || c != 0 {
		t.Errorf("true==true failed: %d %v", c, err)
	}
}

func TestCompareErrors(t *testing.T) {
	if _, err := Compare(Null, NewInt(1)); err == nil {
		t.Error("NULL comparison must error")
	}
	if _, err := Compare(NewString("x"), NewInt(1)); err == nil {
		t.Error("cross-class comparison must error")
	}
	var ic *ErrIncomparable
	_, err := Compare(NewString("x"), NewBool(true))
	if err == nil {
		t.Fatal("expected error")
	}
	var ok bool
	ic, ok = err.(*ErrIncomparable)
	if !ok || ic.A != TypeString || ic.B != TypeBool {
		t.Errorf("error detail wrong: %v", err)
	}
}

func TestEqual(t *testing.T) {
	if !NewInt(2).Equal(NewFloat(2)) {
		t.Error("2 == 2.0")
	}
	if Null.Equal(Null) {
		t.Error("NULL must not Equal NULL")
	}
	if NewString("a").Equal(NewInt(1)) {
		t.Error("cross-class Equal must be false")
	}
}

func TestCompareForSortTotalOrder(t *testing.T) {
	// NULL < numerics < strings < bools
	ordered := []Value{Null, NewInt(-1), NewFloat(0.5), NewInt(7), NewString("a"), NewString("b"), NewBool(false), NewBool(true)}
	for i := 0; i < len(ordered); i++ {
		for j := 0; j < len(ordered); j++ {
			got := CompareForSort(ordered[i], ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			// Equal-rank pairs (NULL/NULL) compare 0; distinct ranks must match.
			if (want != 0 && got != want) || (want == 0 && got != 0) {
				t.Errorf("CompareForSort(%v,%v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestCoerce(t *testing.T) {
	v, err := Coerce(NewFloat(3.0), TypeInt)
	if err != nil || v.Int() != 3 {
		t.Errorf("3.0→INT: %v %v", v, err)
	}
	if _, err := Coerce(NewFloat(3.5), TypeInt); err == nil {
		t.Error("3.5→INT must fail")
	}
	v, err = Coerce(NewString(" 42 "), TypeInt)
	if err != nil || v.Int() != 42 {
		t.Errorf("' 42 '→INT: %v %v", v, err)
	}
	v, err = Coerce(NewInt(5), TypeFloat)
	if err != nil || v.Float() != 5.0 {
		t.Errorf("5→FLOAT: %v %v", v, err)
	}
	v, err = Coerce(NewString("2.5"), TypeFloat)
	if err != nil || v.Float() != 2.5 {
		t.Errorf("'2.5'→FLOAT: %v %v", v, err)
	}
	v, err = Coerce(NewInt(0), TypeBool)
	if err != nil || v.Bool() {
		t.Errorf("0→BOOL: %v %v", v, err)
	}
	v, err = Coerce(NewString("true"), TypeBool)
	if err != nil || !v.Bool() {
		t.Errorf("'true'→BOOL: %v %v", v, err)
	}
	if _, err := Coerce(NewString("maybe"), TypeBool); err == nil {
		t.Error("'maybe'→BOOL must fail")
	}
	v, err = Coerce(NewBool(true), TypeString)
	if err != nil || v.Str() != "true" {
		t.Errorf("true→TEXT: %v %v", v, err)
	}
	v, err = Coerce(Null, TypeInt)
	if err != nil || !v.IsNull() {
		t.Errorf("NULL coerces to anything: %v %v", v, err)
	}
	if _, err := Coerce(NewFloat(math.Inf(1)), TypeInt); err == nil {
		t.Error("Inf→INT must fail")
	}
}

func TestCoerceIdempotent(t *testing.T) {
	f := func(i int64, s string, b bool) bool {
		for _, v := range []Value{NewInt(i), NewString(s), NewBool(b)} {
			once, err := Coerce(v, v.Type())
			if err != nil {
				return false
			}
			twice, err := Coerce(once, v.Type())
			if err != nil {
				return false
			}
			if !once.IsNull() && !once.Equal(twice) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareAntisymmetry(t *testing.T) {
	f := func(a, b int64) bool {
		x, err1 := Compare(NewInt(a), NewInt(b))
		y, err2 := Compare(NewInt(b), NewInt(a))
		return err1 == nil && err2 == nil && x == -y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b string) bool {
		x, err1 := Compare(NewString(a), NewString(b))
		y, err2 := Compare(NewString(b), NewString(a))
		return err1 == nil && err2 == nil && x == -y
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestTriTruthTables(t *testing.T) {
	vals := []Tri{True, False, Unknown}
	// Kleene K3 tables.
	and := map[[2]Tri]Tri{
		{True, True}: True, {True, False}: False, {True, Unknown}: Unknown,
		{False, True}: False, {False, False}: False, {False, Unknown}: False,
		{Unknown, True}: Unknown, {Unknown, False}: False, {Unknown, Unknown}: Unknown,
	}
	or := map[[2]Tri]Tri{
		{True, True}: True, {True, False}: True, {True, Unknown}: True,
		{False, True}: True, {False, False}: False, {False, Unknown}: Unknown,
		{Unknown, True}: True, {Unknown, False}: Unknown, {Unknown, Unknown}: Unknown,
	}
	for _, a := range vals {
		for _, b := range vals {
			if got := a.And(b); got != and[[2]Tri{a, b}] {
				t.Errorf("%v AND %v = %v, want %v", a, b, got, and[[2]Tri{a, b}])
			}
			if got := a.Or(b); got != or[[2]Tri{a, b}] {
				t.Errorf("%v OR %v = %v, want %v", a, b, got, or[[2]Tri{a, b}])
			}
		}
	}
	if True.Not() != False || False.Not() != True || Unknown.Not() != Unknown {
		t.Error("NOT table wrong")
	}
}

func TestTriValueRoundTrip(t *testing.T) {
	if !True.Value().Bool() || False.Value().Bool() || !Unknown.Value().IsNull() {
		t.Error("Tri.Value mapping wrong")
	}
	if TriOf(true) != True || TriOf(false) != False {
		t.Error("TriOf mapping wrong")
	}
}

func TestDeMorgan(t *testing.T) {
	f := func(x, y uint8) bool {
		a, b := Tri(x%3), Tri(y%3)
		return a.And(b).Not() == a.Not().Or(b.Not()) &&
			a.Or(b).Not() == a.Not().And(b.Not())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
