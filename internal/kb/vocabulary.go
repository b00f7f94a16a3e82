package kb

import (
	"fmt"
	"sort"
)

// This file implements user-declared vocabulary: the smg:Resource and
// smg:Property terms of Fig. 4. The paper lets users "defin[e] new concepts
// and new properties" (Sec. V) and relate them to known ones; the semantic
// platform records which user declared each term, and annotation UIs use
// the declared vocabulary for suggestions.

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
