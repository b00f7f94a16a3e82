package kb

import (
	"fmt"
	"sort"
	"strings"

	"crosse/internal/rdf"
)

// This file implements the remaining Fig. 4 vocabulary: smg:Resource and
// smg:Property declarations. The paper lets users "defin[e] new concepts
// and new properties" (Sec. V) and relate them to known ones; the semantic
// platform records who declared what via the userResource / userProperty
// edges, and annotation UIs use the declared vocabulary for suggestions.

// Fig. 4 vocabulary for user-declared terms.
const (
	ClassResource    = SMG + "Resource"
	ClassProperty    = SMG + "Property"
	PropUserResource = SMG + "userResource"
	PropUserProperty = SMG + "userProperty"
)

// Declaration is one user-declared vocabulary term.
type Declaration struct {
	Name  string // the term's IRI
	Owner string
	Kind  DeclKind
}

// DeclKind discriminates resource vs property declarations.
type DeclKind int

// Declaration kinds.
const (
	DeclResource DeclKind = iota
	DeclProperty
)

func (k DeclKind) String() string {
	if k == DeclProperty {
		return "property"
	}
	return "resource"
}

// DeclareResource records that the user introduces a new concept into the
// shared vocabulary. Declarations are idempotent per (name); the first
// declarer is recorded as owner.
func (p *Platform) DeclareResource(user, iri string) error {
	return p.declare(user, iri, DeclResource)
}

// DeclareProperty records a new user-declared property.
func (p *Platform) DeclareProperty(user, iri string) error {
	return p.declare(user, iri, DeclProperty)
}

func (p *Platform) declare(user, iri string, kind DeclKind) error {
	if iri == "" {
		return fmt.Errorf("kb: empty declaration")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.requireUser(user); err != nil {
		return err
	}
	if p.decls == nil {
		p.decls = map[string]*Declaration{}
	}
	key := kind.String() + "\x00" + iri
	if _, ok := p.decls[key]; ok {
		return nil // idempotent
	}
	p.decls[key] = &Declaration{Name: iri, Owner: user, Kind: kind}
	return nil
}

// Declarations lists declared terms of the given kind, sorted by name.
func (p *Platform) Declarations(kind DeclKind) []Declaration {
	p.mu.RLock()
	defer p.mu.RUnlock()
	var out []Declaration
	for _, d := range p.decls {
		if d.Kind == kind {
			out = append(out, *d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SuggestedProperties returns the property vocabulary an annotation UI
// should offer: explicitly declared properties plus every property already
// used in statements, sorted and deduplicated. This backs the paper's
// "connecting existing concepts through suggested properties" (Sec. V).
func (p *Platform) SuggestedProperties() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	seen := map[string]struct{}{}
	for _, d := range p.decls {
		if d.Kind == DeclProperty {
			seen[d.Name] = struct{}{}
		}
	}
	for _, st := range p.statements {
		if st.Triple.P.IsIRI() {
			seen[st.Triple.P.Value] = struct{}{}
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// declsToRDF renders declarations into the reified graph (called by ToRDF
// with the platform lock held).
func (p *Platform) declsToRDF(g *rdf.SharedStore) {
	typ := rdf.NewIRI(rdf.RDFType)
	for _, d := range p.decls {
		node := rdf.NewIRI(d.Name)
		switch d.Kind {
		case DeclProperty:
			g.AcquireTriple(rdf.Triple{S: node, P: typ, O: rdf.NewIRI(ClassProperty)})
			g.AcquireTriple(rdf.Triple{S: userIRI(d.Owner), P: rdf.NewIRI(PropUserProperty), O: node})
		default:
			g.AcquireTriple(rdf.Triple{S: node, P: typ, O: rdf.NewIRI(ClassResource)})
			g.AcquireTriple(rdf.Triple{S: userIRI(d.Owner), P: rdf.NewIRI(PropUserResource), O: node})
		}
	}
}

// declsFromRDF rebuilds declarations from the reified graph (called by
// FromRDF after users exist).
func declsFromRDF(p *Platform, g rdf.Graph) error {
	typ := rdf.NewIRI(rdf.RDFType)
	load := func(class, edge string, kind DeclKind) error {
		for _, t := range rdf.MatchSorted(g, rdf.Pattern{P: typ, O: rdf.NewIRI(class)}) {
			owners := rdf.Subjects(g, rdf.NewIRI(edge), t.S)
			if len(owners) != 1 {
				return fmt.Errorf("kb: declaration %s has %d owners", t.S, len(owners))
			}
			owner := strings.TrimPrefix(owners[0].Value, SMG+"user/")
			if err := p.declare(owner, t.S.Value, kind); err != nil {
				return err
			}
		}
		return nil
	}
	if err := load(ClassResource, PropUserResource, DeclResource); err != nil {
		return err
	}
	return load(ClassProperty, PropUserProperty, DeclProperty)
}
