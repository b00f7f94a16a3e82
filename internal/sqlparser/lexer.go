// Package sqlparser implements the SQL dialect of the CroSSE relational
// substrate: lexer, AST and recursive-descent parser for the DDL/DML/query
// surface the SmartGround databank uses (CREATE TABLE/INDEX, DROP, INSERT,
// UPDATE, DELETE, SELECT with joins, grouping, ordering and expressions).
// The SESQL front-end (internal/sesql) strips enrichment syntax and feeds
// the remaining text through this parser, exactly as Fig. 6 prescribes.
package sqlparser

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// TokKind enumerates SQL token kinds.
type TokKind int

// Token kinds.
const (
	TEOF TokKind = iota
	TIdent
	TNumber
	TString
	TPunct // single/multi char operators and punctuation
	TParam // a typed literal slot (?N:type), lexed only from query shapes
)

// Token is one lexical token with its source position.
type Token struct {
	Kind TokKind
	Text string // identifier text (original case), operator text, literal body
	Pos  int
	// Quoted marks identifiers written as "name"; they bypass the
	// reserved-word check.
	Quoted bool
}

// String renders the token for error messages.
func (t Token) String() string {
	if t.Kind == TEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.Text)
}

// Lexer tokenises SQL text.
type Lexer struct {
	in  string
	pos int
	// params makes ?N:type markers lex as TParam tokens; SQL text proper
	// never contains them (a '?' outside a string is a lexical error).
	params bool
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer { return &Lexer{in: src} }

// NewShapeLexer returns a lexer over a query shape: ?N:type markers lex as
// TParam tokens.
func NewShapeLexer(src string) *Lexer { return &Lexer{in: src, params: true} }

// Offset returns the input offset just past the last token returned.
func (l *Lexer) Offset() int { return l.pos }

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	l.skip()
	start := l.pos
	if l.pos >= len(l.in) {
		return Token{Kind: TEOF, Pos: start}, nil
	}
	c := l.in[l.pos]

	// String literal.
	if c == '\'' {
		var b strings.Builder
		i := l.pos + 1
		for i < len(l.in) {
			if l.in[i] == '\'' {
				// '' is an escaped quote.
				if i+1 < len(l.in) && l.in[i+1] == '\'' {
					b.WriteByte('\'')
					i += 2
					continue
				}
				l.pos = i + 1
				return Token{Kind: TString, Text: b.String(), Pos: start}, nil
			}
			b.WriteByte(l.in[i])
			i++
		}
		return Token{}, fmt.Errorf("sql: unterminated string literal at offset %d", start)
	}

	// Number.
	if c >= '0' && c <= '9' || c == '.' && l.pos+1 < len(l.in) && l.in[l.pos+1] >= '0' && l.in[l.pos+1] <= '9' {
		i := l.pos
		seenDot := false
		for i < len(l.in) {
			d := l.in[i]
			if d >= '0' && d <= '9' {
				i++
				continue
			}
			if d == '.' && !seenDot {
				seenDot = true
				i++
				continue
			}
			if (d == 'e' || d == 'E') && i+1 < len(l.in) {
				j := i + 1
				if l.in[j] == '+' || l.in[j] == '-' {
					j++
				}
				if j < len(l.in) && l.in[j] >= '0' && l.in[j] <= '9' {
					i = j
					seenDot = true // exponent implies float
					continue
				}
			}
			break
		}
		tok := Token{Kind: TNumber, Text: l.in[l.pos:i], Pos: start}
		l.pos = i
		return tok, nil
	}

	// Quoted identifier "..." (kept verbatim).
	if c == '"' {
		end := strings.IndexByte(l.in[l.pos+1:], '"')
		if end < 0 {
			return Token{}, fmt.Errorf("sql: unterminated quoted identifier at offset %d", start)
		}
		text := l.in[l.pos+1 : l.pos+1+end]
		l.pos += end + 2
		return Token{Kind: TIdent, Text: text, Pos: start, Quoted: true}, nil
	}

	// Identifier / keyword.
	r, _ := utf8.DecodeRuneInString(l.in[l.pos:])
	if unicode.IsLetter(r) || r == '_' {
		i := l.pos
		for i < len(l.in) {
			r, sz := utf8.DecodeRuneInString(l.in[i:])
			if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' {
				break
			}
			i += sz
		}
		tok := Token{Kind: TIdent, Text: l.in[l.pos:i], Pos: start}
		l.pos = i
		return tok, nil
	}

	if c == '?' && l.params {
		if n, _, _, ok := scanParam(l.in[l.pos:]); ok {
			l.pos += n
			return Token{Kind: TParam, Text: l.in[start:l.pos], Pos: start}, nil
		}
	}

	// Operators / punctuation, longest match first.
	for _, op := range []string{"<>", "!=", "<=", ">=", "||"} {
		if strings.HasPrefix(l.in[l.pos:], op) {
			l.pos += len(op)
			return Token{Kind: TPunct, Text: op, Pos: start}, nil
		}
	}
	switch c {
	case '(', ')', ',', '.', '*', '+', '-', '/', '%', '=', '<', '>', ';':
		l.pos++
		return Token{Kind: TPunct, Text: string(c), Pos: start}, nil
	}
	return Token{}, fmt.Errorf("sql: unexpected character %q at offset %d", c, start)
}

func (l *Lexer) skip() {
	for l.pos < len(l.in) {
		c := l.in[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.in) && l.in[l.pos+1] == '-':
			for l.pos < len(l.in) && l.in[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.in) && l.in[l.pos+1] == '*':
			end := strings.Index(l.in[l.pos+2:], "*/")
			if end < 0 {
				l.pos = len(l.in)
				return
			}
			l.pos += end + 4
		default:
			return
		}
	}
}

// LexAll tokenises the whole input (testing convenience).
func LexAll(src string) ([]Token, error) {
	l := NewLexer(src)
	var out []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		if t.Kind == TEOF {
			return out, nil
		}
		out = append(out, t)
	}
}
