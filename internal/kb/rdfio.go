package kb

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"crosse/internal/rdf"
)

// This file materialises the Fig. 4 reified RDF schema: every statement
// becomes an smg:Statement node carrying rdf:subject/predicate/object,
// linked from its owner via smg:userStatement and from each accepting user
// via smg:userBelief, with optional smg:Reference nodes. Export+Import give
// the platform a persistence format that is itself RDF, as the paper's
// architecture implies (the semantic platform stores everything in the
// triple store).

func userIRI(name string) rdf.Term  { return rdf.NewIRI(SMG + "user/" + name) }
func stmtIRI(id string) rdf.Term    { return rdf.NewIRI(SMG + "statement/" + id) }
func refIRI(id string) rdf.Term     { return rdf.NewIRI(SMG + "reference/" + id) }
func queryIRI(name string) rdf.Term { return rdf.NewIRI(SMG + "query/" + name) }

// Additional vocabulary for stored queries (an implementation detail the
// paper mentions via [25]: SPARQL queries saved under a property name).
const (
	classStoredQuery = SMG + "StoredQuery"
	propQueryText    = SMG + "queryText"
	propQueryOwner   = SMG + "queryOwner"
)

// The statement counter, so ids Insert hands out after a Load are the
// ones it would have handed out before the Save.
const (
	platformNode      = SMG + "platform"
	propNextStatement = SMG + "nextStatement"
)

// ToRDF renders the entire platform state as a reified RDF graph: an
// arena of its own that nothing releases from.
func (p *Platform) ToRDF() *rdf.SharedStore {
	p.mu.RLock()
	defer p.mu.RUnlock()
	g := rdf.NewSharedStore()
	typ := rdf.NewIRI(rdf.RDFType)

	for u := range p.users {
		g.AcquireTriple(rdf.Triple{S: userIRI(u), P: typ, O: rdf.NewIRI(ClassUser)})
	}
	for _, st := range p.order {
		id := st.ID
		node := stmtIRI(id)
		g.AcquireTriple(rdf.Triple{S: node, P: typ, O: rdf.NewIRI(ClassStatement)})
		g.AcquireTriple(rdf.Triple{S: node, P: rdf.NewIRI(rdf.RDFSubject), O: st.Triple.S})
		g.AcquireTriple(rdf.Triple{S: node, P: rdf.NewIRI(rdf.RDFPredicate), O: st.Triple.P})
		g.AcquireTriple(rdf.Triple{S: node, P: rdf.NewIRI(rdf.RDFObject), O: st.Triple.O})
		g.AcquireTriple(rdf.Triple{S: userIRI(st.Owner), P: rdf.NewIRI(PropUserStatement), O: node})
		for u := range st.believers {
			g.AcquireTriple(rdf.Triple{S: userIRI(u), P: rdf.NewIRI(PropUserBelief), O: node})
		}
		if st.Ref != nil {
			rnode := refIRI(id)
			g.AcquireTriple(rdf.Triple{S: node, P: rdf.NewIRI(PropStmReference), O: rnode})
			g.AcquireTriple(rdf.Triple{S: rnode, P: typ, O: rdf.NewIRI(ClassReference)})
			if st.Ref.Title != "" {
				g.AcquireTriple(rdf.Triple{S: rnode, P: rdf.NewIRI(PropRefTitle), O: rdf.NewLiteral(st.Ref.Title)})
			}
			if st.Ref.Author != "" {
				g.AcquireTriple(rdf.Triple{S: rnode, P: rdf.NewIRI(PropRefAuthor), O: rdf.NewLiteral(st.Ref.Author)})
			}
			if st.Ref.Link != "" {
				g.AcquireTriple(rdf.Triple{S: rnode, P: rdf.NewIRI(PropRefLink), O: rdf.NewLiteral(st.Ref.Link)})
			}
			if st.Ref.File != "" {
				g.AcquireTriple(rdf.Triple{S: node, P: rdf.NewIRI(PropFileReference), O: rdf.NewLiteral(st.Ref.File)})
			}
		}
	}
	for _, q := range p.queries {
		node := queryIRI(q.Name)
		g.AcquireTriple(rdf.Triple{S: node, P: typ, O: rdf.NewIRI(classStoredQuery)})
		g.AcquireTriple(rdf.Triple{S: node, P: rdf.NewIRI(propQueryText), O: rdf.NewLiteral(q.Text)})
		if q.Owner != "" {
			g.AcquireTriple(rdf.Triple{S: node, P: rdf.NewIRI(propQueryOwner), O: userIRI(q.Owner)})
		}
	}
	g.AcquireTriple(rdf.Triple{S: rdf.NewIRI(platformNode), P: rdf.NewIRI(propNextStatement),
		O: rdf.NewTypedLiteral(strconv.Itoa(p.nextID), rdf.XSDInteger)})
	p.declsToRDF(g)
	return g
}

// Save writes the platform as N-Triples of the reified graph.
func (p *Platform) Save(w io.Writer) error {
	return rdf.WriteNTriples(w, p.ToRDF())
}

// Load reconstructs a platform from a reified graph previously produced by
// Save/ToRDF. It returns a fresh platform.
func Load(r io.Reader) (*Platform, error) {
	g := rdf.NewSharedStore()
	if _, err := rdf.ReadNTriples(r, g); err != nil {
		return nil, err
	}
	return FromRDF(g)
}

// FromRDF rebuilds platform state from a reified graph.
func FromRDF(g rdf.Graph) (*Platform, error) {
	p := NewPlatform()
	typ := rdf.NewIRI(rdf.RDFType)

	// Users.
	for _, t := range rdf.MatchSorted(g, rdf.Pattern{P: typ, O: rdf.NewIRI(ClassUser)}) {
		name := strings.TrimPrefix(t.S.Value, SMG+"user/")
		if err := p.RegisterUser(name); err != nil {
			return nil, err
		}
	}

	one := func(s rdf.Term, prop string) (rdf.Term, error) {
		objs := rdf.Objects(g, s, rdf.NewIRI(prop))
		if len(objs) != 1 {
			return rdf.Term{}, fmt.Errorf("kb: node %s has %d values for %s, want 1", s, len(objs), prop)
		}
		return objs[0], nil
	}

	// Statements, each under its saved id and in the numeric order Insert
	// issued them, so ids, Explore order and the counter all survive.
	// Ids Insert did not issue (seq 0) go first, lexically.
	type stmtNode struct {
		seq  int
		id   string
		node rdf.Term
	}
	var stmts []stmtNode
	next := 0
	for _, node := range rdf.Subjects(g, typ, rdf.NewIRI(ClassStatement)) {
		id := strings.TrimPrefix(node.Value, SMG+"statement/")
		seq := statementSeq(id)
		stmts = append(stmts, stmtNode{seq, id, node})
		next = max(next, seq)
	}
	sort.Slice(stmts, func(i, j int) bool {
		a, b := stmts[i], stmts[j]
		return a.seq < b.seq || a.seq == b.seq && a.id < b.id
	})
	if v := rdf.Objects(g, rdf.NewIRI(platformNode), rdf.NewIRI(propNextStatement)); len(v) == 1 {
		n, err := strconv.Atoi(v[0].Value)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("kb: bad statement counter %s", v[0])
		}
		next = max(next, n)
	}
	for _, sn := range stmts {
		id, node := sn.id, sn.node
		sub, err := one(node, rdf.RDFSubject)
		if err != nil {
			return nil, err
		}
		pred, err := one(node, rdf.RDFPredicate)
		if err != nil {
			return nil, err
		}
		obj, err := one(node, rdf.RDFObject)
		if err != nil {
			return nil, err
		}
		owners := rdf.Subjects(g, rdf.NewIRI(PropUserStatement), node)
		if len(owners) != 1 {
			return nil, fmt.Errorf("kb: statement %s has %d owners", id, len(owners))
		}
		owner := strings.TrimPrefix(owners[0].Value, SMG+"user/")

		if err := p.requireUser(owner); err != nil {
			return nil, err
		}
		var ref *Reference
		if refs := rdf.Objects(g, node, rdf.NewIRI(PropStmReference)); len(refs) == 1 {
			ref = &Reference{}
			if v := rdf.Objects(g, refs[0], rdf.NewIRI(PropRefTitle)); len(v) == 1 {
				ref.Title = v[0].Value
			}
			if v := rdf.Objects(g, refs[0], rdf.NewIRI(PropRefAuthor)); len(v) == 1 {
				ref.Author = v[0].Value
			}
			if v := rdf.Objects(g, refs[0], rdf.NewIRI(PropRefLink)); len(v) == 1 {
				ref.Link = v[0].Value
			}
			if v := rdf.Objects(g, node, rdf.NewIRI(PropFileReference)); len(v) == 1 {
				ref.File = v[0].Value
			}
		}
		// p is not shared yet, so the write lock addStatement expects
		// guards nothing here.
		p.addStatement(id, owner, rdf.Triple{S: sub, P: pred, O: obj}, ref)
		// Beliefs beyond the owner.
		for _, u := range rdf.Subjects(g, rdf.NewIRI(PropUserBelief), node) {
			name := strings.TrimPrefix(u.Value, SMG+"user/")
			if name != owner {
				if err := p.Import(name, id); err != nil {
					return nil, err
				}
			}
		}
	}
	p.nextID = next

	// Stored queries.
	for _, t := range rdf.MatchSorted(g, rdf.Pattern{P: typ, O: rdf.NewIRI(classStoredQuery)}) {
		name := strings.TrimPrefix(t.S.Value, SMG+"query/")
		text, err := one(t.S, propQueryText)
		if err != nil {
			return nil, err
		}
		owner := ""
		if ow := rdf.Objects(g, t.S, rdf.NewIRI(propQueryOwner)); len(ow) == 1 {
			owner = strings.TrimPrefix(ow[0].Value, SMG+"user/")
		}
		if err := p.RegisterQuery(owner, name, text.Value); err != nil {
			return nil, err
		}
	}

	if err := declsFromRDF(p, g); err != nil {
		return nil, err
	}
	return p, nil
}

// statementSeq returns N for an id "stmt-N" as Insert issues them, and 0
// for any other id.
func statementSeq(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "stmt-"))
	if err != nil || n <= 0 || id != "stmt-"+strconv.Itoa(n) {
		return 0
	}
	return n
}
