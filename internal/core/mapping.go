// Package core implements the semantically-enriched query processing module
// of CroSSE (Sec. IV-B, Fig. 6): given a SESQL query, the Semantic Query
// Parser (internal/sesql) splits it into a SQL part and an enrichment syntax
// tree; this package's Enricher — the Semantic Query Module (SQM) — then
// constructs SPARQL queries against the user's knowledge base, issues the
// SQL and SPARQL queries independently, and a JoinManager combines the
// partial results using an XML-declared resource mapping. The JoinManager
// compiles with the query's shape and joins in one pass over the base
// rows. The paper stages the joined rows in a temporary support database
// and runs a final SQL query there; this implementation runs the final
// ORDER BY / LIMIT / OFFSET, compiled with the shape, over them in place.
package core

import (
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"

	"crosse/internal/rdf"
	"crosse/internal/sqlval"
)

// Mapping translates between relational values and ontology resources. The
// paper's JoinManager "leverag[es] the resource mapping described in an XML
// file"; this is that file's in-memory form.
//
// Each rule binds a relational column (optionally table-qualified) to a
// rendering: either IRI minting under a prefix, or plain literals. The
// default rule applies to columns without a specific one, and also decides
// how enrichment clause arguments (property and concept names) become IRIs.
type Mapping struct {
	rules  map[string]rule // key "table.column" or "column" (lower-cased)
	defIRI string          // default IRI prefix
}

type rule struct {
	iriPrefix string
	literal   bool
}

// xmlMapping is the on-disk schema.
type xmlMapping struct {
	XMLName xml.Name `xml:"resourceMapping"`
	Default struct {
		IRIPrefix string `xml:"iriPrefix,attr"`
	} `xml:"default"`
	Maps []struct {
		Table     string `xml:"table,attr"`
		Column    string `xml:"column,attr"`
		IRIPrefix string `xml:"iriPrefix,attr"`
		Literal   bool   `xml:"literal,attr"`
	} `xml:"map"`
}

// DefaultIRIPrefix is used when no mapping file is supplied: values and
// ontology names live in the SmartGround namespace.
const DefaultIRIPrefix = "http://smartground.eu/onto#"

// NewMapping returns a mapping with only the default rule.
func NewMapping(defaultPrefix string) *Mapping {
	if defaultPrefix == "" {
		defaultPrefix = DefaultIRIPrefix
	}
	return &Mapping{rules: map[string]rule{}, defIRI: defaultPrefix}
}

// LoadMapping parses the XML resource-mapping document.
func LoadMapping(r io.Reader) (*Mapping, error) {
	var doc xmlMapping
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("core: bad resource mapping XML: %w", err)
	}
	m := NewMapping(doc.Default.IRIPrefix)
	for _, e := range doc.Maps {
		if e.Column == "" {
			return nil, fmt.Errorf("core: mapping entry missing column attribute")
		}
		if e.Literal && e.IRIPrefix != "" {
			return nil, fmt.Errorf("core: mapping for %s.%s is both literal and IRI", e.Table, e.Column)
		}
		key := strings.ToLower(e.Column)
		if e.Table != "" {
			key = strings.ToLower(e.Table) + "." + key
		}
		m.rules[key] = rule{iriPrefix: e.IRIPrefix, literal: e.Literal}
	}
	return m, nil
}

// XMLDocument renders the mapping back to its XML document form.
func (m *Mapping) XMLDocument() string {
	var b strings.Builder
	b.WriteString("<resourceMapping>\n")
	fmt.Fprintf(&b, "  <default iriPrefix=%q/>\n", m.defIRI)
	for key, r := range m.rules {
		table, col := "", key
		if i := strings.IndexByte(key, '.'); i >= 0 {
			table, col = key[:i], key[i+1:]
		}
		if r.literal {
			fmt.Fprintf(&b, "  <map table=%q column=%q literal=\"true\"/>\n", table, col)
		} else {
			fmt.Fprintf(&b, "  <map table=%q column=%q iriPrefix=%q/>\n", table, col, r.iriPrefix)
		}
	}
	b.WriteString("</resourceMapping>\n")
	return b.String()
}

func (m *Mapping) lookup(table, column string) rule {
	if table != "" {
		if r, ok := m.rules[strings.ToLower(table)+"."+strings.ToLower(column)]; ok {
			return r
		}
	}
	if r, ok := m.rules[strings.ToLower(column)]; ok {
		return r
	}
	return rule{iriPrefix: m.defIRI}
}

// ToTerm renders a relational value as the RDF term the ontology uses for
// it, according to the column's rule.
func (m *Mapping) ToTerm(table, column string, v sqlval.Value) rdf.Term {
	r := m.lookup(table, column)
	if r.literal {
		return literalTerm(v)
	}
	prefix := r.iriPrefix
	if prefix == "" {
		prefix = m.defIRI
	}
	return rdf.NewIRI(prefix + v.String())
}

func literalTerm(v sqlval.Value) rdf.Term {
	switch v.Type() {
	case sqlval.TypeInt:
		return rdf.NewTypedLiteral(v.String(), rdf.XSDInteger)
	case sqlval.TypeFloat:
		return rdf.NewTypedLiteral(v.String(), rdf.XSDDouble)
	case sqlval.TypeBool:
		return rdf.NewTypedLiteral(v.String(), rdf.XSDBoolean)
	default:
		return rdf.NewLiteral(v.String())
	}
}

// FromTerm converts an ontology term back into a relational value: IRIs are
// stripped of any known prefix, typed literals become typed values.
func (m *Mapping) FromTerm(t rdf.Term) sqlval.Value {
	switch t.Kind {
	case rdf.IRI:
		val := t.Value
		if strings.HasPrefix(val, m.defIRI) {
			return sqlval.NewString(strings.TrimPrefix(val, m.defIRI))
		}
		for _, r := range m.rules {
			if r.iriPrefix != "" && strings.HasPrefix(val, r.iriPrefix) {
				return sqlval.NewString(strings.TrimPrefix(val, r.iriPrefix))
			}
		}
		return sqlval.NewString(val)
	case rdf.Literal:
		switch t.Datatype {
		case rdf.XSDInteger:
			if i, err := strconv.ParseInt(t.Value, 10, 64); err == nil {
				return sqlval.NewInt(i)
			}
		case rdf.XSDDouble:
			if f, err := strconv.ParseFloat(t.Value, 64); err == nil {
				return sqlval.NewFloat(f)
			}
		case rdf.XSDBoolean:
			return sqlval.NewBool(t.Value == "true")
		}
		return sqlval.NewString(t.Value)
	default:
		return sqlval.NewString("_:" + t.Value)
	}
}

// PropertyIRI maps an enrichment clause's property argument to its IRI.
func (m *Mapping) PropertyIRI(name string) rdf.Term {
	if strings.Contains(name, "://") {
		return rdf.NewIRI(name)
	}
	return rdf.NewIRI(m.defIRI + name)
}

// ConceptTerms maps an enrichment clause's concept argument to the terms it
// may appear as in the ontology: the minted IRI and the plain literal (user
// annotations use either form).
func (m *Mapping) ConceptTerms(name string) []rdf.Term {
	if strings.Contains(name, "://") {
		return []rdf.Term{rdf.NewIRI(name)}
	}
	return []rdf.Term{rdf.NewIRI(m.defIRI + name), rdf.NewLiteral(name)}
}
