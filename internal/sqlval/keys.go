package sqlval

import "strconv"

// keys.go — allocation-free comparable encodings of Values. The executor
// uses these everywhere a value becomes a hash-map key (DISTINCT rows,
// GROUP BY keys, hash-join build tables, DISTINCT aggregates, storage-level
// hash indexes). The encodings are append-style so callers can reuse one
// scratch buffer per operator and probe maps with the zero-copy
// map[string(...)] conversion; only storing a *new* key allocates.

// AppendKey appends a type-tagged encoding of v to dst and returns the
// extended slice. The encoding is injective over the full value domain:
// two Values produce the same bytes iff they have the same type and
// payload (so INTEGER 2 and DOUBLE 2.0 encode differently — the rule
// DISTINCT and GROUP BY follow). Every encoding is self-delimiting
// (strings are length-prefixed; numeric renderings never contain a tag
// byte), so concatenating the keys of a value tuple is itself injective —
// DISTINCT rows and multi-expression GROUP BY keys need no separator.
func AppendKey(dst []byte, v Value) []byte {
	switch v.typ {
	case TypeNull:
		return append(dst, 'n')
	case TypeInt:
		dst = append(dst, 'i')
		return strconv.AppendInt(dst, v.Int(), 10)
	case TypeFloat:
		dst = append(dst, 'd')
		f := v.Float()
		if f == 0 {
			f = 0 // fold -0.0 into +0.0: Compare treats them as equal
		}
		return strconv.AppendFloat(dst, f, 'g', -1, 64)
	case TypeString:
		dst = append(dst, 's')
		dst = strconv.AppendUint(dst, uint64(len(v.s)), 10)
		dst = append(dst, ':')
		return append(dst, v.s...)
	case TypeBool:
		if v.Bool() {
			return append(dst, 'b', '1')
		}
		return append(dst, 'b', '0')
	default:
		return append(dst, '?')
	}
}

// AppendJoinKey appends the equi-join encoding of v: like AppendKey but
// with the numeric types folded into one bucket, so INTEGER 2 and DOUBLE
// 2.0 produce the same key — mirroring Compare, under which they are
// equal. Numerics encode canonically as the float64 they widen to
// (rendering v.Float(), -0.0 folded into +0.0), which guarantees
// Compare-equal values always share a key. The converse can fail for
// integers beyond 2^53 (distinct ints that widen to the same float64
// collide in one bucket), so hash-join probes must re-verify candidates
// with Compare — the bucket is an accelerator, not the equality test.
func AppendJoinKey(dst []byte, v Value) []byte {
	switch v.typ {
	case TypeInt, TypeFloat:
		dst = append(dst, 'N')
		f := v.Float()
		if f == 0 {
			f = 0
		}
		return strconv.AppendFloat(dst, f, 'g', -1, 64)
	default:
		return AppendKey(dst, v)
	}
}
