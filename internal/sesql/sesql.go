// Package sesql implements the SESQL language front-end (Sec. IV, Fig. 5):
// the Semantic Query Parser (SQP) of the CroSSE architecture. A SESQL query
// is a SQL query whose WHERE conditions may carry `${ cond : id }` tags
// (Remark 4.1) followed by an ENRICH clause listing enrichment operations.
//
// Parsing follows exactly the three steps of Remark 4.1: (i) condition tags
// are recognised by a dedicated scanner, (ii) each tagged condition's syntax
// tree is recorded under its identifier, and (iii) the query is "cleaned" by
// removing the non-SQL identification syntax so a legal SQL query remains,
// which is then parsed with the ordinary SQL parser.
//
// The six enrichment clauses of Fig. 5 are supported. The paper's BNF lists
// REPLACECONSTANT/REPLACEVARIABLE with two parameters while its running
// examples (4.5, 4.6) use three (condition id, attribute/constant,
// property); we follow the examples, which are the normative usage.
package sesql

import (
	"fmt"
	"strings"

	"crosse/internal/sqlparser"
)

// Kind enumerates the six enrichment strategies.
type Kind int

// Enrichment kinds (Sec. IV-A.1 through IV-A.6).
const (
	SchemaExtension Kind = iota
	SchemaReplacement
	BoolSchemaExtension
	BoolSchemaReplacement
	ReplaceConstant
	ReplaceVariable
)

// String returns the SESQL clause name.
func (k Kind) String() string {
	switch k {
	case SchemaExtension:
		return "SCHEMAEXTENSION"
	case SchemaReplacement:
		return "SCHEMAREPLACEMENT"
	case BoolSchemaExtension:
		return "BOOLSCHEMAEXTENSION"
	case BoolSchemaReplacement:
		return "BOOLSCHEMAREPLACEMENT"
	case ReplaceConstant:
		return "REPLACECONSTANT"
	case ReplaceVariable:
		return "REPLACEVARIABLE"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Enrichment is one parsed enrichment clause.
type Enrichment struct {
	Kind Kind
	// CondID identifies the tagged WHERE condition (ReplaceConstant /
	// ReplaceVariable only).
	CondID string
	// Attr is the relational attribute to enrich — possibly qualified
	// (Elecond2.elem_name). For ReplaceConstant it is the non-relational
	// constant appearing in the tagged condition (e.g. HazardousWaste).
	Attr string
	// Property is the ontological property driving the enrichment, or the
	// name of a stored SPARQL query.
	Property string
	// Concept is the target concept for the boolean variants.
	Concept string
}

// SESQL renders the clause back in SESQL syntax.
func (e Enrichment) SESQL() string {
	switch e.Kind {
	case BoolSchemaExtension, BoolSchemaReplacement:
		return fmt.Sprintf("%s(%s, %s, %s)", e.Kind, e.Attr, e.Property, e.Concept)
	case ReplaceConstant, ReplaceVariable:
		return fmt.Sprintf("%s(%s, %s, %s)", e.Kind, e.CondID, e.Attr, e.Property)
	default:
		return fmt.Sprintf("%s(%s, %s)", e.Kind, e.Attr, e.Property)
	}
}

// CondTag is one `${ cond : id }` tagged condition.
type CondTag struct {
	ID   string
	Text string         // the raw condition text inside the tag
	Expr sqlparser.Expr // its parsed syntax tree
}

// Query is a fully parsed SESQL query.
type Query struct {
	// SQL is the cleaned SQL text (tags stripped, ENRICH clause removed).
	SQL string
	// Select is the parsed cleaned query.
	Select *sqlparser.Select
	// Conds maps condition ids to their tagged conditions.
	Conds map[string]*CondTag
	// Enrichments lists the requested enrichment operations in order.
	Enrichments []Enrichment
}

// Parse parses a SESQL query. Plain SQL (no ENRICH clause) parses to a
// Query with no enrichments, so SESQL is a strict superset of the engine's
// SQL dialect.
func Parse(src string) (*Query, error) { return parse(src, false) }

// ParseTemplate parses a shape key (see Shape) the way Parse parses the
// texts it stands for: every ?N:type marker becomes a *sqlparser.Param in
// the Select and the tagged conditions, and SQL and CondTag.Text keep the
// markers. It accepts exactly the keys whose texts Parse accepts, except
// for a tagged condition that only a duplicate elsewhere in WHERE matched
// by value — the markers of two occurrences differ — which it rejects.
func ParseTemplate(key string) (*Query, error) { return parse(key, true) }

func parse(src string, params bool) (*Query, error) {
	cleaned, tags, err := scanTags(src, params)
	if err != nil {
		return nil, err
	}
	sqlPart, enrichPart, err := splitEnrich(cleaned, params)
	if err != nil {
		return nil, err
	}

	parseSelect := sqlparser.ParseSelect
	if params {
		parseSelect = sqlparser.ParseSelectTemplate
	}
	sel, err := parseSelect(sqlPart)
	if err != nil {
		return nil, fmt.Errorf("sesql: in SQL part: %w", err)
	}

	q := &Query{SQL: sqlPart, Select: sel, Conds: map[string]*CondTag{}}
	for _, tag := range tags {
		if _, dup := q.Conds[tag.ID]; dup {
			return nil, fmt.Errorf("sesql: duplicate condition id %q", tag.ID)
		}
		q.Conds[tag.ID] = tag
	}

	// Every tagged condition must be locatable in the parsed WHERE clause.
	for _, tag := range tags {
		if sel.Where == nil || !ContainsSubtree(sel.Where, tag.Expr) {
			return nil, fmt.Errorf("sesql: tagged condition %q does not match a WHERE subexpression", tag.ID)
		}
	}

	if enrichPart != "" {
		enr, err := parseEnrichSpec(enrichPart)
		if err != nil {
			return nil, err
		}
		q.Enrichments = enr
	}

	// Cross-validate: WHERE-affecting enrichments must reference known ids;
	// others must not carry one.
	for _, e := range q.Enrichments {
		switch e.Kind {
		case ReplaceConstant, ReplaceVariable:
			if _, ok := q.Conds[e.CondID]; !ok {
				return nil, fmt.Errorf("sesql: %s references unknown condition id %q", e.Kind, e.CondID)
			}
		}
	}
	return q, nil
}

// ScanTags implements the dedicated scanner of Remark 4.1: it recognises
// `${ cond : id }` constructs (characters standard SQL would reject at that
// point), records each condition's text and syntax tree, and returns the
// cleaned text with each tag replaced by its bare condition.
func ScanTags(src string) (string, []*CondTag, error) { return scanTags(src, false) }

func scanTags(src string, params bool) (string, []*CondTag, error) {
	parseExpr := sqlparser.ParseExpr
	if params {
		parseExpr = sqlparser.ParseExprTemplate
	}
	var out strings.Builder
	var tags []*CondTag
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\'':
			// Copy string literals verbatim; tags inside strings are text.
			j := stringEnd(src, i)
			if j >= len(src) {
				return "", nil, fmt.Errorf("sesql: unterminated string literal")
			}
			out.WriteString(src[i : j+1])
			i = j + 1
		case c == '$' && i+1 < len(src) && src[i+1] == '{':
			body, end, err := scanTagBody(src, i+2)
			if err != nil {
				return "", nil, err
			}
			condText, id, err := splitTag(body)
			if err != nil {
				return "", nil, err
			}
			expr, err := parseExpr(condText)
			if err != nil {
				return "", nil, fmt.Errorf("sesql: condition %q: %w", id, err)
			}
			tags = append(tags, &CondTag{ID: id, Text: strings.TrimSpace(condText), Expr: expr})
			out.WriteString(condText)
			i = end
		default:
			out.WriteByte(c)
			i++
		}
	}
	return out.String(), tags, nil
}

// stringEnd returns the index of the quote closing the string literal that
// opens at s[i] (a doubled quote escapes one), or len(s) when it is
// unterminated.
func stringEnd(s string, i int) int {
	for j := i + 1; j < len(s); j++ {
		if s[j] == '\'' {
			if j+1 < len(s) && s[j+1] == '\'' {
				j++
				continue
			}
			return j
		}
	}
	return len(s)
}

// scanTagBody consumes from just after "${" to the matching "}", honouring
// string literals. It returns the body and the index after the "}".
func scanTagBody(src string, start int) (string, int, error) {
	depth := 1 // supports nested braces inside the condition, if ever
	for j := start; j < len(src); j++ {
		switch src[j] {
		case '\'':
			k := stringEnd(src, j)
			if k >= len(src) {
				return "", 0, fmt.Errorf("sesql: unterminated string inside condition tag")
			}
			j = k
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				return src[start:j], j + 1, nil
			}
		}
	}
	return "", 0, fmt.Errorf("sesql: unterminated condition tag ${...}")
}

// splitTag splits "cond : id" at the last top-level colon. The colon of a
// shape's ?N:type marker is not one: a '?' never lexes in SQL text, so in a
// text rather than a shape the condition fails to parse either way.
func splitTag(body string) (string, string, error) {
	colon := -1
	for j := 0; j < len(body); j++ {
		switch body[j] {
		case '?':
			k := j + 1
			for k < len(body) && body[k] >= '0' && body[k] <= '9' {
				k++
			}
			if k > j+1 && k < len(body) && body[k] == ':' {
				j = k
			}
		case '\'':
			j = stringEnd(body, j)
		case ':':
			colon = j
		}
	}
	if colon < 0 {
		return "", "", fmt.Errorf("sesql: condition tag missing ':id'")
	}
	cond := strings.TrimSpace(body[:colon])
	id := strings.TrimSpace(body[colon+1:])
	if cond == "" || id == "" {
		return "", "", fmt.Errorf("sesql: malformed condition tag %q", body)
	}
	for _, r := range id {
		if !(r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9') {
			return "", "", fmt.Errorf("sesql: invalid condition id %q", id)
		}
	}
	return cond, id, nil
}

// splitEnrich splits cleaned SESQL text at the top-level ENRICH keyword.
func splitEnrich(src string, params bool) (string, string, error) {
	lex := sqlparser.NewLexer(src)
	if params {
		lex = sqlparser.NewShapeLexer(src)
	}
	for {
		tok, err := lex.Next()
		if err != nil {
			return "", "", err
		}
		if tok.Kind == sqlparser.TEOF {
			return strings.TrimSpace(src), "", nil
		}
		if tok.Kind == sqlparser.TIdent && !tok.Quoted && strings.EqualFold(tok.Text, "ENRICH") {
			return strings.TrimSpace(src[:tok.Pos]), strings.TrimSpace(src[tok.Pos:]), nil
		}
	}
}

// parseEnrichSpec parses the text after ENRICH: a sequence of enrichment
// clauses per the Fig. 5 grammar.
func parseEnrichSpec(src string) ([]Enrichment, error) {
	// Tokenise with the SQL lexer: clause names are identifiers, argument
	// lists are parenthesised identifier/string tokens.
	rest := strings.TrimSpace(src)
	if !strings.HasPrefix(strings.ToUpper(rest), "ENRICH") {
		return nil, fmt.Errorf("sesql: enrichment spec must start with ENRICH")
	}
	rest = strings.TrimSpace(rest[len("ENRICH"):])
	if rest == "" {
		return nil, fmt.Errorf("sesql: empty ENRICH clause")
	}

	var out []Enrichment
	for rest != "" {
		e, remainder, err := parseOneClause(rest)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		rest = strings.TrimSpace(remainder)
	}
	return out, nil
}

// clauseNames maps (normalised) clause spellings to kinds. The paper writes
// both SCHEMAEXTENSION and SCHEMA EXTENSION; both are accepted.
var clauseNames = map[string]Kind{
	"SCHEMAEXTENSION":       SchemaExtension,
	"SCHEMAREPLACEMENT":     SchemaReplacement,
	"BOOLSCHEMAEXTENSION":   BoolSchemaExtension,
	"BOOLSCHEMAREPLACEMENT": BoolSchemaReplacement,
	"REPLACECONSTANT":       ReplaceConstant,
	"REPLACEVARIABLE":       ReplaceVariable,
}

func parseOneClause(src string) (Enrichment, string, error) {
	open := strings.IndexByte(src, '(')
	if open < 0 {
		return Enrichment{}, "", fmt.Errorf("sesql: expected '(' in enrichment clause near %q", abbrev(src))
	}
	name := strings.ToUpper(strings.Join(strings.Fields(src[:open]), ""))
	kind, ok := clauseNames[name]
	if !ok {
		return Enrichment{}, "", fmt.Errorf("sesql: unknown enrichment clause %q", strings.TrimSpace(src[:open]))
	}
	close := strings.IndexByte(src[open:], ')')
	if close < 0 {
		return Enrichment{}, "", fmt.Errorf("sesql: missing ')' in %s clause", kind)
	}
	argText := src[open+1 : open+close]
	remainder := src[open+close+1:]

	var args []string
	for _, a := range strings.Split(argText, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			return Enrichment{}, "", fmt.Errorf("sesql: empty argument in %s clause", kind)
		}
		args = append(args, a)
	}

	e := Enrichment{Kind: kind}
	switch kind {
	case SchemaExtension, SchemaReplacement:
		if len(args) != 2 {
			return Enrichment{}, "", fmt.Errorf("sesql: %s expects (attr, property), got %d args", kind, len(args))
		}
		e.Attr, e.Property = args[0], args[1]
	case BoolSchemaExtension, BoolSchemaReplacement:
		if len(args) != 3 {
			return Enrichment{}, "", fmt.Errorf("sesql: %s expects (attr, property, concept), got %d args", kind, len(args))
		}
		e.Attr, e.Property, e.Concept = args[0], args[1], args[2]
	case ReplaceConstant, ReplaceVariable:
		if len(args) != 3 {
			return Enrichment{}, "", fmt.Errorf("sesql: %s expects (condID, attr, property), got %d args", kind, len(args))
		}
		e.CondID, e.Attr, e.Property = args[0], args[1], args[2]
	}
	return e, remainder, nil
}

func abbrev(s string) string {
	s = strings.Join(strings.Fields(s), " ")
	if len(s) > 40 {
		return s[:37] + "..."
	}
	return s
}

// --- WHERE-subtree location and rewriting ---

// ContainsSubtree reports whether the expression tree contains a subtree
// that renders to the same SQL as needle (the printer is deterministic and
// fully parenthesised, so textual equality is structural equality).
func ContainsSubtree(hay, needle sqlparser.Expr) bool {
	found := false
	target := needle.SQL()
	sqlparser.Walk(hay, func(e sqlparser.Expr) bool {
		found = found || e.SQL() == target
		return !found
	})
	return found
}

// ReplaceSubtree returns a copy of hay with every subtree structurally equal
// to needle replaced by repl, plus the replacement count. hay is never
// modified.
func ReplaceSubtree(hay, needle, repl sqlparser.Expr) (sqlparser.Expr, int) {
	target := needle.SQL()
	n := 0
	out := sqlparser.Rewrite(hay, func(e sqlparser.Expr) (sqlparser.Expr, bool) {
		if e.SQL() != target {
			return nil, false
		}
		n++
		return repl, true
	})
	return out, n
}
