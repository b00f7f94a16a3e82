package sparql

// plan.go — query compilation. Compile lowers a parsed *Query into an
// immutable physical Plan: every variable in the query is assigned a dense
// slot index at compile time, triple patterns and property paths reference
// slots and a shared constant table instead of names and terms, FILTER
// expressions are lowered to slot-resolved evaluator trees with constant
// regex() patterns precompiled, and the projection / ORDER BY / DISTINCT
// machinery is resolved to slot lists. A solution during evaluation is then
// a []rdf.TermID row indexed by slot, not a string-keyed map; see exec.go
// for the streaming executor that runs the plan.
//
// Plans hold structure only — never data and never per-evaluation state —
// so one Plan is safe for concurrent evaluation against many graphs, which
// is what lets internal/core's QueryCache memoise Plans across users and KB
// mutations.

import (
	"fmt"
	"regexp"
	"regexp/syntax"
	"strings"
	"unicode/utf8"

	"crosse/internal/rdf"
)

// Options tunes query evaluation. The zero value is the production default.
// The join order is always the planner's greedy, selectivity-first one.
type Options struct {
	// Parallelism caps the worker count of the morsel-driven parallel
	// evaluation path: 0 (the default) means GOMAXPROCS, 1 forces the
	// serial path, larger values bound the fan-out. Evaluation falls back
	// to serial when the head pattern's posting list is small or the query
	// shape cannot be partitioned (see parallel.go).
	Parallelism int
}

// Plan is a compiled, immutable physical form of a Query. It is safe for
// concurrent evaluation: all per-evaluation state lives in the executor.
type Plan struct {
	q *Query

	// vars is the projected variable list (SELECT * resolved at compile
	// time); projSlots aligns slot indexes with it.
	vars      []string
	projSlots []int
	varIndex  map[string]int // projected var name → index into vars

	slotNames []string // slot → variable name (diagnostics)

	// consts is the distinct constant-term table. Constants are resolved to
	// IDs once per evaluation (they depend on the target graph's dictionary,
	// not on the query).
	consts []rdf.Term

	root    *groupPlan
	order   []orderKeyPlan
	ngroups int
}

// Query returns the parsed query the plan was compiled from. Shared, not a
// copy: treat it as immutable.
func (p *Plan) Query() *Query { return p.q }

// Vars returns a copy of the projected variable list.
func (p *Plan) Vars() []string { return append([]string(nil), p.vars...) }

// NumVars returns the number of projected variables.
func (p *Plan) NumVars() int { return len(p.vars) }

type orderKeyPlan struct {
	slot int
	desc bool
}

// groupPlan is a compiled group graph pattern: triple patterns (joined in a
// runtime-chosen order), OPTIONAL/UNION blocks in source order, and the
// group's filters (attached to join steps at activation time, see exec.go).
type groupPlan struct {
	id       int
	patterns []*patternPlan
	others   []otherPlan
	filters  []*filterPlan
}

type otherPlan interface{ otherPlan() }

type optionalPlan struct{ group *groupPlan }
type unionPlan struct{ left, right *groupPlan }

func (*optionalPlan) otherPlan() {}
func (*unionPlan) otherPlan()    {}

// nodeRef is a compiled subject/object position: a variable slot, or an
// index into the plan's constant table.
type nodeRef struct {
	slot  int // ≥ 0: variable slot; < 0: constant
	konst int // constant-table index, meaningful when slot < 0
}

// patternPlan is a compiled triple pattern. Exactly one of pred ≥ 0,
// pvar ≥ 0, or path != nil describes the predicate position.
type patternPlan struct {
	s, o nodeRef
	pred int      // constant-table index of a plain IRI predicate, else -1
	pvar int      // slot of a variable predicate, else -1
	path pathPlan // non-nil for a complex property path

	// varSlots lists the distinct variable slots this pattern binds
	// (subject, predicate, object — deduplicated), for join ordering and
	// filter placement.
	varSlots []int
}

// pathPlan mirrors the Path AST with constants lowered to the plan's
// constant table.
type pathPlan interface{ pathPlan() }

type pIRI struct{ konst int }
type pVarStep struct{}
type pSeq struct{ l, r pathPlan }
type pAlt struct{ l, r pathPlan }
type pInv struct{ p pathPlan }
type pClosure struct {
	p        pathPlan
	min, max int
}

func (pIRI) pathPlan()     {}
func (pVarStep) pathPlan() {}
func (pSeq) pathPlan()     {}
func (pAlt) pathPlan()     {}
func (pInv) pathPlan()     {}
func (pClosure) pathPlan() {}

// filterPlan is a compiled FILTER: a slot-resolved expression tree plus the
// distinct variable slots it references (for pushdown placement).
type filterPlan struct {
	e     fexpr
	slots []int
}

// Compile lowers a parsed query into a physical plan. It fails on
// structural errors a parse cannot catch, most importantly invalid constant
// regex() patterns in FILTER expressions (precompiled here, once per plan,
// instead of once per solution).
func Compile(q *Query) (*Plan, error) {
	c := &compiler{
		slots:    map[string]int{},
		constIdx: map[rdf.Term]int{},
	}
	root, err := c.group(q.Where)
	if err != nil {
		return nil, err
	}

	vars := q.Vars
	if q.Star {
		vars = nil
		seen := map[string]struct{}{}
		collectVars(q.Where, &vars, seen)
	}
	projSlots := make([]int, len(vars))
	varIndex := make(map[string]int, len(vars))
	for i, v := range vars {
		projSlots[i] = c.slot(v)
		if _, dup := varIndex[v]; !dup {
			varIndex[v] = i
		}
	}

	order := make([]orderKeyPlan, len(q.Order))
	for i, k := range q.Order {
		order[i] = orderKeyPlan{slot: c.slot(k.Var), desc: k.Desc}
	}

	return &Plan{
		q:         q,
		vars:      vars,
		projSlots: projSlots,
		varIndex:  varIndex,
		slotNames: c.names,
		consts:    c.consts,
		root:      root,
		order:     order,
		ngroups:   c.ngroups,
	}, nil
}

type compiler struct {
	slots    map[string]int
	names    []string
	consts   []rdf.Term
	constIdx map[rdf.Term]int
	ngroups  int
}

func (c *compiler) slot(name string) int {
	if s, ok := c.slots[name]; ok {
		return s
	}
	s := len(c.names)
	c.slots[name] = s
	c.names = append(c.names, name)
	return s
}

func (c *compiler) konst(t rdf.Term) int {
	if i, ok := c.constIdx[t]; ok {
		return i
	}
	i := len(c.consts)
	c.constIdx[t] = i
	c.consts = append(c.consts, t)
	return i
}

func (c *compiler) node(n NodePattern) nodeRef {
	if n.IsVar() {
		return nodeRef{slot: c.slot(n.Var)}
	}
	return nodeRef{slot: -1, konst: c.konst(n.Term)}
}

func (c *compiler) group(g *Group) (*groupPlan, error) {
	gp := &groupPlan{id: c.ngroups}
	c.ngroups++
	for _, e := range g.Elems {
		switch el := e.(type) {
		case TriplePattern:
			pp, err := c.pattern(el)
			if err != nil {
				return nil, err
			}
			gp.patterns = append(gp.patterns, pp)
		case Filter:
			fe, err := c.expr(el.Expr)
			if err != nil {
				return nil, err
			}
			fp := &filterPlan{e: fe}
			set := map[int]struct{}{}
			c.exprSlots(el.Expr, set)
			for s := range set {
				fp.slots = append(fp.slots, s)
			}
			gp.filters = append(gp.filters, fp)
		case Optional:
			sub, err := c.group(el.Group)
			if err != nil {
				return nil, err
			}
			gp.others = append(gp.others, &optionalPlan{group: sub})
		case Union:
			l, err := c.group(el.Left)
			if err != nil {
				return nil, err
			}
			r, err := c.group(el.Right)
			if err != nil {
				return nil, err
			}
			gp.others = append(gp.others, &unionPlan{left: l, right: r})
		default:
			return nil, fmt.Errorf("sparql: unknown group element %T", e)
		}
	}
	return gp, nil
}

func (c *compiler) pattern(tp TriplePattern) (*patternPlan, error) {
	pp := &patternPlan{
		s:    c.node(tp.S),
		o:    c.node(tp.O),
		pred: -1,
		pvar: -1,
	}
	switch p := tp.P.(type) {
	case PathIRI:
		pp.pred = c.konst(p.IRI)
	case PathVar:
		pp.pvar = c.slot(p.Name)
	default:
		pp.path = c.path(tp.P)
	}
	add := func(s int) {
		if s < 0 {
			return
		}
		for _, have := range pp.varSlots {
			if have == s {
				return
			}
		}
		pp.varSlots = append(pp.varSlots, s)
	}
	add(pp.s.slot)
	add(pp.pvar)
	add(pp.o.slot)
	return pp, nil
}

func (c *compiler) path(p Path) pathPlan {
	switch pp := p.(type) {
	case PathIRI:
		return pIRI{konst: c.konst(pp.IRI)}
	case PathVar:
		// A variable nested inside a path expression is a wildcard step
		// (its binding is not observable), matching the term-level
		// evaluator's semantics.
		return pVarStep{}
	case PathSeq:
		return pSeq{l: c.path(pp.Left), r: c.path(pp.Right)}
	case PathAlt:
		return pAlt{l: c.path(pp.Left), r: c.path(pp.Right)}
	case PathInverse:
		return pInv{p: c.path(pp.P)}
	case PathClosure:
		return pClosure{p: c.path(pp.P), min: pp.Min, max: pp.Max}
	default:
		// Unknown path types match nothing.
		return pAlt{l: pVarStep{}, r: pVarStep{}}
	}
}

// exprSlots collects the variable slots an expression references.
func (c *compiler) exprSlots(e Expr, set map[int]struct{}) {
	switch ex := e.(type) {
	case VarRef:
		set[c.slot(ex.Name)] = struct{}{}
	case Not:
		c.exprSlots(ex.E, set)
	case Binary:
		c.exprSlots(ex.L, set)
		c.exprSlots(ex.R, set)
	case Call:
		for _, a := range ex.Args {
			c.exprSlots(a, set)
		}
	}
}

// --- FILTER expression lowering ---

// fexpr is a compiled FILTER expression node. eval follows the original
// engine's semantics: an error (unbound variable, arity mistake, unknown
// function) makes the enclosing filter drop the solution, it never fails
// the query. The one exception is an invalid constant regex() pattern,
// which Compile rejects up front.
type fexpr interface {
	eval(ev *exec) (rdf.Term, error)
}

type fLit struct{ t rdf.Term }
type fSlot struct {
	slot int
	name string
}
type fNot struct{ e fexpr }
type fBinary struct {
	op   BinOp
	l, r fexpr
}
type fBound struct{ slot int }
type fStr struct{ e fexpr }
type fIsIRI struct{ e fexpr }
type fIsLit struct{ e fexpr }

// fRegex is regex() with a constant pattern, compiled once per plan.
type fRegex struct {
	arg fexpr
	m   *regexMatcher
}

// fDynRegex is regex() whose pattern (or flags) is itself computed per
// solution; it compiles at evaluation time, once per pattern and flags
// an evaluation meets (exec.regexes).
type fDynRegex struct {
	arg, pat fexpr
	flags    fexpr // nil when absent
}

// fErr defers a structural error (arity, unknown function) to evaluation
// time, where it drops solutions instead of failing the query — preserving
// the original engine's behaviour.
type fErr struct{ err error }

func (c *compiler) expr(e Expr) (fexpr, error) {
	switch ex := e.(type) {
	case Lit:
		return fLit{t: ex.Term}, nil
	case VarRef:
		return fSlot{slot: c.slot(ex.Name), name: ex.Name}, nil
	case Not:
		sub, err := c.expr(ex.E)
		if err != nil {
			return nil, err
		}
		return fNot{e: sub}, nil
	case Binary:
		l, err := c.expr(ex.L)
		if err != nil {
			return nil, err
		}
		r, err := c.expr(ex.R)
		if err != nil {
			return nil, err
		}
		return fBinary{op: ex.Op, l: l, r: r}, nil
	case Call:
		return c.call(ex)
	default:
		return fErr{err: fmt.Errorf("sparql: unknown expression %T", e)}, nil
	}
}

func (c *compiler) call(ex Call) (fexpr, error) {
	switch ex.Name {
	case "BOUND":
		if len(ex.Args) != 1 {
			return fErr{err: fmt.Errorf("sparql: BOUND takes 1 argument")}, nil
		}
		v, ok := ex.Args[0].(VarRef)
		if !ok {
			return fErr{err: fmt.Errorf("sparql: BOUND argument must be a variable")}, nil
		}
		return fBound{slot: c.slot(v.Name)}, nil
	case "STR", "ISIRI", "ISLITERAL":
		if len(ex.Args) != 1 {
			return fErr{err: fmt.Errorf("sparql: %s takes 1 argument", ex.Name)}, nil
		}
		arg, err := c.expr(ex.Args[0])
		if err != nil {
			return nil, err
		}
		switch ex.Name {
		case "STR":
			return fStr{e: arg}, nil
		case "ISIRI":
			return fIsIRI{e: arg}, nil
		default:
			return fIsLit{e: arg}, nil
		}
	case "REGEX":
		if len(ex.Args) != 2 && len(ex.Args) != 3 {
			return fErr{err: fmt.Errorf("sparql: REGEX takes 2 or 3 arguments")}, nil
		}
		arg, err := c.expr(ex.Args[0])
		if err != nil {
			return nil, err
		}
		patLit, patConst := ex.Args[1].(Lit)
		flagsConst := true
		var flagsLit Lit
		if len(ex.Args) == 3 {
			flagsLit, flagsConst = ex.Args[2].(Lit)
		}
		if patConst && flagsConst {
			m, err := compileRegex(regexSource(patLit.Term.Value, flagsLit.Term.Value))
			if err != nil {
				return nil, err
			}
			return fRegex{arg: arg, m: m}, nil
		}
		pat, err := c.expr(ex.Args[1])
		if err != nil {
			return nil, err
		}
		var flags fexpr
		if len(ex.Args) == 3 {
			if flags, err = c.expr(ex.Args[2]); err != nil {
				return nil, err
			}
		}
		return fDynRegex{arg: arg, pat: pat, flags: flags}, nil
	default:
		return fErr{err: fmt.Errorf("sparql: unknown function %s", ex.Name)}, nil
	}
}

// regexMatcher is a compiled regex() pattern behind a literal prefilter:
// every match contains lit (at the very end when suffix), so a string
// without it is rejected before the regexp runs.
type regexMatcher struct {
	re     *regexp.Regexp
	lit    string
	suffix bool
}

// regexSource is the regexp source of regex(·, pat, flags): the "i" flag
// makes the match case-insensitive; no other flag changes it.
func regexSource(pat, flags string) string {
	if strings.Contains(flags, "i") {
		return "(?i)" + pat
	}
	return pat
}

// compileRegex compiles a regexSource and derives its prefilter.
func compileRegex(src string) (*regexMatcher, error) {
	re, err := regexp.Compile(src)
	if err != nil {
		return nil, fmt.Errorf("sparql: bad REGEX pattern: %w", err)
	}
	m := &regexMatcher{re: re}
	m.lit, m.suffix = requiredLiteral(src)
	return m, nil
}

func (m *regexMatcher) match(s string) bool {
	if m.suffix {
		if !strings.HasSuffix(s, m.lit) {
			return false
		}
	} else if !strings.Contains(s, m.lit) {
		return false
	}
	return m.re.MatchString(s)
}

// requiredLiteral returns the longest literal every match of the regexp
// src must contain: a case-sensitive literal element of its top-level
// concatenation, reported as a suffix when the end-of-text assertion
// directly follows it and ends the pattern. It returns "" when no element
// qualifies, and never a literal holding U+FFFD, which the matcher also
// matches on an invalid input byte.
func requiredLiteral(src string) (lit string, suffix bool) {
	re, err := syntax.Parse(src, syntax.Perl) // regexp.Compile's flags
	if err != nil {
		return "", false
	}
	re = re.Simplify()
	elems := []*syntax.Regexp{re}
	if re.Op == syntax.OpConcat {
		elems = re.Sub
	}
	for i, el := range elems {
		if el.Op != syntax.OpLiteral || el.Flags&syntax.FoldCase != 0 {
			continue
		}
		l := string(el.Rune)
		if strings.ContainsRune(l, utf8.RuneError) {
			continue
		}
		end := i == len(elems)-2 && elems[i+1].Op == syntax.OpEndText
		if len(l) > len(lit) || len(l) == len(lit) && end {
			lit, suffix = l, end
		}
	}
	return lit, suffix
}
