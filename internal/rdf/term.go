// Package rdf implements the contextual-knowledge substrate of CroSSE:
// an RDF data model (IRIs, literals, blank nodes, triples) and a
// dictionary-encoded, indexed in-memory triple store with pattern matching.
// Terms are interned to dense uint32 IDs (Dict), each asserted triple holds
// a dense uint32 ordinal, and the SPO/POS/OSP permutation indexes are
// postings of ordinals keyed on those IDs, which makes pattern counting
// one lookup. It plays the role the paper assigns to the Jena triple store
// (Sec. III-B, Fig. 4), and is the storage layer underneath the SPARQL
// engine (internal/sparql) and the knowledge-base management layer
// (internal/kb).
//
// There is one triple store, the SharedStore arena: it interns and
// indexes every asserted triple once, and each user's knowledge base is a
// View over it holding only a bitset of arena ordinals and a triple count
// per predicate (see shared.go, and Fig. 4's per-user slices of one
// reified store). Both implement Graph, whose one method, ReadIDs, opens
// a read transaction over the encoded layer. The term-level reads —
// ForEach, Count, MatchSorted, Subjects, Objects — are package functions
// written once over ReadIDs, so the SPARQL executor and every other reader
// are agnostic to which of the two they read.
package rdf

import (
	"fmt"
	"strings"
)

// TermKind discriminates the three RDF term kinds.
type TermKind int

const (
	// IRI identifies a resource (concept, property, user, …).
	IRI TermKind = iota
	// Literal is a (possibly typed) value such as a string or number.
	Literal
	// Blank is an anonymous node, scoped to the store it lives in.
	Blank
)

// Term is an RDF term. Terms are immutable value types: two terms are the
// same resource iff they are == comparable equal, which makes them usable
// as map keys throughout the store and the SPARQL engine.
type Term struct {
	Kind TermKind
	// Value holds the IRI string, the literal lexical form, or the blank
	// node label, depending on Kind.
	Value string
	// Datatype is the literal datatype IRI; empty means xsd:string.
	// Only meaningful when Kind == Literal.
	Datatype string
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: IRI, Value: iri} }

// NewLiteral returns a plain (string) literal term.
func NewLiteral(lex string) Term { return Term{Kind: Literal, Value: lex} }

// NewTypedLiteral returns a literal with an explicit datatype IRI. An
// xsd:string literal is the plain literal (RDF 1.1), so it gets no
// datatype and equals NewLiteral(lex).
func NewTypedLiteral(lex, datatype string) Term {
	if datatype == XSDString {
		datatype = ""
	}
	return Term{Kind: Literal, Value: lex, Datatype: datatype}
}

// NewBlank returns a blank node with the given label.
func NewBlank(label string) Term { return Term{Kind: Blank, Value: label} }

// Common datatype IRIs used by the platform.
const (
	XSDString  = "http://www.w3.org/2001/XMLSchema#string"
	XSDInteger = "http://www.w3.org/2001/XMLSchema#integer"
	XSDDouble  = "http://www.w3.org/2001/XMLSchema#double"
	XSDBoolean = "http://www.w3.org/2001/XMLSchema#boolean"
)

// RDFType is rdf:type, the predicate SPARQL's "a" keyword abbreviates.
const RDFType = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

// IsZero reports whether the term is the zero Term (used as "unbound" in
// match patterns).
func (t Term) IsZero() bool { return t == Term{} }

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == IRI }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == Literal }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.Kind == Blank }

// Compare totally orders terms by kind, then value, then datatype, without
// rendering them. It underlies MatchSorted and the SPARQL engine's ORDER BY
// fallback comparison.
func (t Term) Compare(u Term) int {
	if t.Kind != u.Kind {
		if t.Kind < u.Kind {
			return -1
		}
		return 1
	}
	if c := strings.Compare(t.Value, u.Value); c != 0 {
		return c
	}
	return strings.Compare(t.Datatype, u.Datatype)
}

// String renders the term in N-Triples-like syntax.
func (t Term) String() string {
	switch t.Kind {
	case IRI:
		return "<" + t.Value + ">"
	case Blank:
		return "_:" + t.Value
	case Literal:
		q := "\"" + literalEscaper.Replace(t.Value) + "\""
		if t.Datatype != "" && t.Datatype != XSDString {
			return q + "^^<" + t.Datatype + ">"
		}
		return q
	default:
		return fmt.Sprintf("?term(%d)", int(t.Kind))
	}
}

// literalEscaper escapes a lexical form for the inside of "…".
var literalEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`, "\r", `\r`, "\t", `\t`)

// Triple is an RDF statement <subject, property, object>.
type Triple struct {
	S, P, O Term
}

// String renders the triple in N-Triples syntax (without the final dot).
func (t Triple) String() string {
	return t.S.String() + " " + t.P.String() + " " + t.O.String()
}

// Compare orders triples by subject, then predicate, then object under
// Term.Compare.
func (t Triple) Compare(u Triple) int {
	if c := t.S.Compare(u.S); c != 0 {
		return c
	}
	if c := t.P.Compare(u.P); c != 0 {
		return c
	}
	return t.O.Compare(u.O)
}

// Pattern is a triple pattern: zero-value terms act as wildcards.
// It is the unit of the term-level reads (ForEach, Count, …).
type Pattern struct {
	S, P, O Term
}

// Matches reports whether the triple satisfies the pattern.
func (p Pattern) Matches(t Triple) bool {
	return (p.S.IsZero() || p.S == t.S) &&
		(p.P.IsZero() || p.P == t.P) &&
		(p.O.IsZero() || p.O == t.O)
}

// String renders the pattern with "?" for wildcards.
func (p Pattern) String() string {
	part := func(t Term) string {
		if t.IsZero() {
			return "?"
		}
		return t.String()
	}
	return part(p.S) + " " + part(p.P) + " " + part(p.O)
}
