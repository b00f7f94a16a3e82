package sesql

import (
	"strings"

	"crosse/internal/sqlparser"
	"crosse/internal/sqlval"
)

// Literals is the literal vector Shape lexes out of a text: Vals[i] binds
// slot i of the text's shape and Texts[i] is its source spelling.
type Literals struct {
	Vals  []sqlval.Value
	Texts []string
}

// Shape lexes a SESQL text once into its shape key and literal vector. The
// key is the text with every string and numeric literal of WHERE, ON and
// HAVING — inside condition tags too — replaced by a typed slot marker
// (?1:str, ?2:int, ?3:float, numbered in text order). Everything else stays
// in the key: select-list literals (they can name headers), ORDER BY,
// LIMIT and OFFSET (they size the top-K), the pattern right after LIKE (it
// is pre-compiled), and the whole ENRICH clause. An IN list keeps its
// length: one marker per element. ParseTemplate turns a key into the
// template every text with that key binds its literals into.
//
// ok is false when the text cannot be shaped safely; the caller then
// treats the text as its own shape and Parse reports any error. That is
// the case for a malformed text, a literal straddling a tag boundary, and
// a comment or a quote inside a quoted identifier (there the tag scanner's
// idea of a string and the SQL lexer's could differ), and a '?' inside a
// quoted identifier (rendered bare, it could read as a marker).
func Shape(src string) (key string, lits Literals, ok bool) {
	// The cleaned text is src minus the tag syntax: runs of src, in order.
	type run struct{ lo, hi int }
	var runs []run
	last := 0
	for i := 0; i < len(src); {
		switch {
		case src[i] == '\'':
			if i = stringEnd(src, i) + 1; i > len(src) {
				return "", Literals{}, false
			}
		case src[i] == '$' && i+1 < len(src) && src[i+1] == '{':
			body, end, err := scanTagBody(src, i+2)
			if err != nil {
				return "", Literals{}, false
			}
			cond, _, err := splitTag(body)
			if err != nil {
				return "", Literals{}, false
			}
			c := i + 2 + strings.Index(body, cond)
			runs = append(runs, run{last, i}, run{c, c + len(cond)})
			i, last = end, end
		default:
			i++
		}
	}
	runs = append(runs, run{last, len(src)})
	cleaned := src
	if len(runs) > 1 {
		var b strings.Builder
		for _, r := range runs {
			b.WriteString(src[r.lo:r.hi])
		}
		cleaned = b.String()
	}
	// toSrc maps a cleaned-text span back to src; ok is false when the span
	// crosses from one run into the next.
	toSrc := func(lo, hi int) (int, int, bool) {
		for _, r := range runs {
			n := r.hi - r.lo
			if lo < n {
				return r.lo + lo, r.lo + hi, hi <= n
			}
			lo, hi = lo-n, hi-n
		}
		return 0, 0, false
	}

	var out []byte
	copied := 0
	lex := sqlparser.NewLexer(cleaned)
	prev, depth := 0, 0
	inCond, afterLike := false, false
lexing:
	for {
		tok, err := lex.Next()
		if err != nil {
			return "", Literals{}, false
		}
		for _, c := range []byte(cleaned[prev:tok.Pos]) {
			if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
				return "", Literals{}, false // a comment
			}
		}
		if tok.Kind == sqlparser.TEOF {
			break
		}
		prev = lex.Offset()
		likePattern := afterLike
		afterLike = false
		switch tok.Kind {
		case sqlparser.TIdent:
			if tok.Quoted {
				if strings.ContainsAny(tok.Text, "'?") {
					return "", Literals{}, false
				}
				continue
			}
			switch {
			case strings.EqualFold(tok.Text, "ENRICH"):
				break lexing
			case strings.EqualFold(tok.Text, "LIKE"):
				afterLike = true
			case isKeyword(tok.Text, condOpen):
				inCond = true
			case isKeyword(tok.Text, condClose):
				inCond = false
			}
		case sqlparser.TPunct:
			switch tok.Text {
			case "(":
				depth++
			case ")":
				depth--
			case ",":
				if depth == 0 {
					inCond = false // the next table of a FROM list after an ON
				}
			}
		case sqlparser.TNumber, sqlparser.TString:
			if !inCond || likePattern {
				continue
			}
			v := sqlval.NewString(tok.Text)
			if tok.Kind == sqlparser.TNumber {
				if v, err = sqlparser.NumberValue(tok.Text); err != nil {
					return "", Literals{}, false
				}
			}
			lo, hi, inRun := toSrc(tok.Pos, prev)
			if !inRun {
				return "", Literals{}, false
			}
			if out == nil {
				out = make([]byte, 0, len(src)+16)
			}
			out = append(out, src[copied:lo]...)
			out = sqlparser.AppendParam(out, len(lits.Vals), v.Type())
			copied = hi
			lits.Vals = append(lits.Vals, v)
			lits.Texts = append(lits.Texts, src[lo:hi])
		}
	}
	if out == nil {
		return src, lits, true
	}
	return string(append(out, src[copied:]...)), lits, true
}

// The clause keywords that open and close the regions whose literals Shape
// turns into slots.
var (
	condOpen  = []string{"WHERE", "ON", "HAVING"}
	condClose = []string{"FROM", "JOIN", "INNER", "LEFT", "CROSS", "GROUP", "ORDER", "LIMIT", "OFFSET"}
)

func isKeyword(s string, words []string) bool {
	for _, w := range words {
		if len(s) == len(w) && strings.EqualFold(s, w) {
			return true
		}
	}
	return false
}
