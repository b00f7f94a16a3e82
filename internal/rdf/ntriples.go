package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// This file implements an N-Triples-style codec so knowledge bases can be
// exported, versioned, and re-imported (the paper's platform persists user
// annotations; we persist them as line-oriented triples). Whatever the
// writer emits, the parser reads back as the same triple.

// WriteNTriples serialises every triple of g (sorted, deterministic) to w,
// one statement per line terminated by " .". It fails on a blank node
// whose label N-Triples cannot spell.
func WriteNTriples(w io.Writer, g Graph) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for _, t := range MatchSorted(g, Pattern{}) {
		var err error
		if line, err = appendTriple(line[:0], t); err != nil {
			return err
		}
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadNTriples parses triples from r (N-Triples subset: IRIs, quoted
// literals with optional ^^<datatype>, blank nodes, # comments) and
// acquires each in the arena. It returns the number of distinct triples it
// made visible: a repeated line, or a triple the arena already held,
// counts nothing.
func ReadNTriples(r io.Reader, g *SharedStore) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	added, lineno := 0, 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		t, err := ParseTripleLine(line)
		if err != nil {
			return added, fmt.Errorf("rdf: line %d: %w", lineno, err)
		}
		if g.RefCount(g.AcquireTriple(t)) == 1 {
			added++
		}
	}
	return added, sc.Err()
}

// appendTriple appends the N-Triples line for t, newline included.
func appendTriple(b []byte, t Triple) ([]byte, error) {
	for _, term := range [3]Term{t.S, t.P, t.O} {
		var err error
		if b, err = appendTerm(b, term); err != nil {
			return b, err
		}
		b = append(b, ' ')
	}
	return append(b, ".\n"...), nil
}

// appendTerm appends t in N-Triples syntax. Unlike Term.String, which
// SPARQL texts and trace names use, it escapes IRIs so that any value
// reads back unchanged.
func appendTerm(b []byte, t Term) ([]byte, error) {
	switch t.Kind {
	case IRI:
		return appendIRI(b, t.Value), nil
	case Blank:
		if !validBlankLabel(t.Value) {
			return b, fmt.Errorf("rdf: blank node label %q cannot be written as N-Triples", t.Value)
		}
		return append(append(b, "_:"...), t.Value...), nil
	case Literal:
		b = append(b, '"')
		b = append(b, literalEscaper.Replace(t.Value)...)
		b = append(b, '"')
		if t.Datatype != "" && t.Datatype != XSDString {
			b = append(b, "^^"...)
			b = appendIRI(b, t.Datatype)
		}
		return b, nil
	default:
		return b, fmt.Errorf("rdf: cannot write term of kind %d", int(t.Kind))
	}
}

// appendIRI appends <iri>, escaping as \u00XX every byte an IRIREF
// forbids: controls, space and <>"{}|^`\.
func appendIRI(b []byte, iri string) []byte {
	b = append(b, '<')
	for i := 0; i < len(iri); i++ {
		c := iri[i]
		if c <= ' ' || strings.IndexByte("<>\"{}|^`\\", c) >= 0 {
			b = append(b, `\u00`...)
			b = append(b, "0123456789ABCDEF"[c>>4], "0123456789ABCDEF"[c&0xF])
			continue
		}
		b = append(b, c)
	}
	return append(b, '>')
}

// validBlankLabel reports whether the writer can spell label as a blank
// node the parser reads back: non-empty, with no space and no byte below
// it (the ASCII controls).
func validBlankLabel(label string) bool {
	if label == "" {
		return false
	}
	for i := 0; i < len(label); i++ {
		if label[i] <= ' ' {
			return false
		}
	}
	return true
}

// ParseTripleLine parses a single N-Triples statement (the trailing dot is
// optional).
func ParseTripleLine(line string) (Triple, error) {
	p := &ntParser{in: line}
	s, err := p.term()
	if err != nil {
		return Triple{}, err
	}
	pr, err := p.term()
	if err != nil {
		return Triple{}, err
	}
	o, err := p.term()
	if err != nil {
		return Triple{}, err
	}
	p.ws()
	if p.pos < len(p.in) && p.in[p.pos] == '.' {
		p.pos++
	}
	p.ws()
	if p.pos < len(p.in) {
		return Triple{}, fmt.Errorf("trailing garbage %q", p.in[p.pos:])
	}
	return Triple{s, pr, o}, nil
}

type ntParser struct {
	in  string
	pos int
}

func (p *ntParser) ws() {
	for p.pos < len(p.in) && (p.in[p.pos] == ' ' || p.in[p.pos] == '\t') {
		p.pos++
	}
}

func (p *ntParser) term() (Term, error) {
	p.ws()
	if p.pos >= len(p.in) {
		return Term{}, fmt.Errorf("unexpected end of statement")
	}
	switch p.in[p.pos] {
	case '<':
		iri, err := p.iri()
		if err != nil {
			return Term{}, err
		}
		return NewIRI(iri), nil
	case '_':
		if p.pos+1 >= len(p.in) || p.in[p.pos+1] != ':' {
			return Term{}, fmt.Errorf("malformed blank node")
		}
		// A label runs to the next space or tab, so labels that earlier
		// versions of this codec wrote, such as _:a:b, still read back.
		start := p.pos + 2
		end := start
		for end < len(p.in) && p.in[end] != ' ' && p.in[end] != '\t' {
			end++
		}
		p.pos = end
		// A dot that ends the line ends the statement, not the label.
		if p.ws(); p.pos == len(p.in) && end > start && p.in[end-1] == '.' {
			end--
		}
		label := p.in[start:end]
		if !validBlankLabel(label) {
			return Term{}, fmt.Errorf("malformed blank node label %q", label)
		}
		return NewBlank(label), nil
	case '"':
		lex, rest, err := unquoteLiteral(p.in[p.pos:])
		if err != nil {
			return Term{}, err
		}
		p.pos = len(p.in) - len(rest)
		// Optional ^^<datatype>.
		if strings.HasPrefix(p.in[p.pos:], "^^<") {
			p.pos += 2
			dt, err := p.iri()
			if err != nil {
				return Term{}, fmt.Errorf("datatype: %w", err)
			}
			return NewTypedLiteral(lex, dt), nil
		}
		return NewLiteral(lex), nil
	default:
		return Term{}, fmt.Errorf("unexpected character %q", p.in[p.pos])
	}
}

// iri consumes <…> at the cursor and returns its value with \u and \U
// escapes decoded.
func (p *ntParser) iri() (string, error) {
	end := strings.IndexByte(p.in[p.pos:], '>')
	if end < 0 {
		return "", fmt.Errorf("unterminated IRI")
	}
	raw := p.in[p.pos+1 : p.pos+end]
	p.pos += end + 1
	var b strings.Builder
	for i := 0; i < len(raw); {
		// A backslash that starts no \u or \U escape is kept as it is:
		// earlier versions wrote IRIs unescaped, and the writer now always
		// escapes a backslash, so such a byte can only come from those files.
		if raw[i] != '\\' || i+1 == len(raw) || raw[i+1] != 'u' && raw[i+1] != 'U' {
			b.WriteByte(raw[i])
			i++
			continue
		}
		n, err := unescapeUnicode(&b, raw[i:])
		if err != nil {
			return "", fmt.Errorf("IRI: %w", err)
		}
		i += n
	}
	return b.String(), nil
}

// unescapeUnicode decodes the \uXXXX or \UXXXXXXXX escape at the start of
// s into b and returns its length.
func unescapeUnicode(b *strings.Builder, s string) (int, error) {
	if len(s) < 2 || s[1] != 'u' && s[1] != 'U' {
		return 0, fmt.Errorf("invalid escape %q", s[:min(len(s), 2)])
	}
	n := 4
	if s[1] == 'U' {
		n = 8
	}
	if len(s) < 2+n {
		return 0, fmt.Errorf("short escape %q", s)
	}
	v, err := strconv.ParseUint(s[2:2+n], 16, 32)
	if err != nil || !utf8.ValidRune(rune(v)) {
		return 0, fmt.Errorf("invalid escape %q", s[:2+n])
	}
	b.WriteRune(rune(v))
	return 2 + n, nil
}

// echars maps the character after a backslash in a literal to what the
// escape stands for; \u and \U are decoded separately.
var echars = map[byte]byte{'\\': '\\', '"': '"', '\'': '\'', 'n': '\n', 'r': '\r', 't': '\t', 'b': '\b', 'f': '\f'}

// unquoteLiteral consumes a leading quoted literal from s and returns the
// unescaped lexical form plus the remainder of s.
func unquoteLiteral(s string) (string, string, error) {
	if len(s) == 0 || s[0] != '"' {
		return "", "", fmt.Errorf("expected quoted literal")
	}
	var b strings.Builder
	for i := 1; i < len(s); {
		switch s[i] {
		case '"':
			return b.String(), s[i+1:], nil
		case '\\':
			if i+1 >= len(s) {
				return "", "", fmt.Errorf("dangling escape")
			}
			if c, ok := echars[s[i+1]]; ok {
				b.WriteByte(c)
				i += 2
				continue
			}
			n, err := unescapeUnicode(&b, s[i:])
			if err != nil {
				return "", "", err
			}
			i += n
		default:
			b.WriteByte(s[i])
			i++
		}
	}
	return "", "", fmt.Errorf("unterminated literal")
}
