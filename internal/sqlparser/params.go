package sqlparser

import (
	"strconv"
	"strings"

	"crosse/internal/sqlval"
)

// Param is a typed literal slot of a query shape: the text of a query with
// its WHERE/ON/HAVING literals replaced by ?N:type markers (see
// internal/sesql's Shape). It stands for the Index-th literal (0-based;
// the marker counts from 1) of whichever query text is bound to the shape.
type Param struct {
	Index int
	Type  sqlval.Type // TypeString, TypeInt or TypeFloat
}

func (*Param) expr() {}

// SQL renders the slot's marker.
func (e *Param) SQL() string { return string(AppendParam(nil, e.Index, e.Type)) }

// AppendParam appends the marker of slot index (0-based) of type t.
func AppendParam(b []byte, index int, t sqlval.Type) []byte {
	b = append(b, '?')
	b = strconv.AppendInt(b, int64(index+1), 10)
	switch t {
	case sqlval.TypeInt:
		return append(b, ":int"...)
	case sqlval.TypeFloat:
		return append(b, ":float"...)
	default:
		return append(b, ":str"...)
	}
}

// scanParam reads a marker at the start of s, reporting its length, slot
// index and type.
func scanParam(s string) (n, index int, t sqlval.Type, ok bool) {
	i := 1
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	num, err := strconv.Atoi(s[1:i])
	if err != nil || num < 1 || i >= len(s) || s[i] != ':' {
		return 0, 0, 0, false
	}
	rest := s[i+1:]
	for _, typ := range [...]struct {
		name string
		t    sqlval.Type
	}{{"str", sqlval.TypeString}, {"int", sqlval.TypeInt}, {"float", sqlval.TypeFloat}} {
		if strings.HasPrefix(rest, typ.name) {
			return i + 1 + len(typ.name), num - 1, typ.t, true
		}
	}
	return 0, 0, 0, false
}

// Pieces is a shape text cut at its slot markers, ready to be spliced with
// one text per slot: Text[0] slot(Slots[0]) Text[1] ... Text[len(Slots)].
type Pieces struct {
	Text  []string
	Slots []int
}

// SplitParams cuts a shape text at its ?N:type markers. A marker-like run
// inside a string literal or a quoted identifier stays text.
func SplitParams(src string) Pieces {
	var p Pieces
	last := 0
	for i := 0; i < len(src); i++ {
		switch c := src[i]; c {
		case '\'', '"':
			// '' inside a string reads as two adjacent strings: same span.
			for i++; i < len(src) && src[i] != c; i++ {
			}
		case '?':
			if n, idx, _, ok := scanParam(src[i:]); ok {
				p.Text = append(p.Text, src[last:i])
				p.Slots = append(p.Slots, idx)
				i += n - 1
				last = i + 1
			}
		}
	}
	p.Text = append(p.Text, src[last:])
	return p
}

// Splice renders the pieces with lits[i] in place of slot i.
func (p Pieces) Splice(lits []string) string {
	if len(p.Slots) == 0 {
		return p.Text[0]
	}
	n := 0
	for _, t := range p.Text {
		n += len(t)
	}
	for _, s := range p.Slots {
		n += len(lits[s])
	}
	var b strings.Builder
	b.Grow(n)
	for i, s := range p.Slots {
		b.WriteString(p.Text[i])
		b.WriteString(lits[s])
	}
	b.WriteString(p.Text[len(p.Slots)])
	return b.String()
}
