package oracle

// sparql.go — the term-level SPARQL evaluator, a port of the seed
// engine's: string-keyed bindings, full materialisation between stages,
// and a plain triple slice read through rdf.Pattern.Matches. It evaluates
// a group's triple patterns left to right, then its OPTIONALs and UNIONs,
// then its FILTERs, and applies ORDER BY, projection, DISTINCT, OFFSET
// and LIMIT in that order.

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"crosse/internal/rdf"
	"crosse/internal/sparql"
)

// binding maps variable names to terms.
type binding map[string]rdf.Term

func (b binding) with(name string, t rdf.Term) binding {
	nb := make(binding, len(b)+1)
	for k, v := range b {
		nb[k] = v
	}
	nb[name] = t
	return nb
}

// SPARQL evaluates q over the triples g.
func SPARQL(g []rdf.Triple, q *sparql.Query) (*sparql.Result, error) {
	sols, err := evalGroup(g, q.Where, []binding{{}})
	if err != nil {
		return nil, err
	}
	if q.Form == sparql.Ask {
		return &sparql.Result{Bool: len(sols) > 0}, nil
	}
	vars := q.Vars
	if q.Star {
		vars = starVars(q.Where, nil, map[string]bool{})
	}
	if len(q.Order) > 0 {
		sort.SliceStable(sols, func(i, j int) bool {
			for _, k := range q.Order {
				if c := compareTerms(sols[i][k.Var], sols[j][k.Var]); c != 0 {
					return (c < 0) != k.Desc
				}
			}
			return false
		})
	}
	out := make([]sparql.Binding, 0, len(sols))
	seen := map[string]bool{}
	for _, s := range sols {
		proj := sparql.Binding{}
		var key strings.Builder
		for _, v := range vars {
			if t, ok := s[v]; ok {
				proj[v] = t
				key.WriteString(t.String())
			}
			key.WriteByte(0)
		}
		if q.Distinct {
			if seen[key.String()] {
				continue
			}
			seen[key.String()] = true
		}
		out = append(out, proj)
	}
	out = out[min(q.Offset, len(out)):]
	if q.Limit >= 0 && q.Limit < len(out) {
		out = out[:q.Limit]
	}
	return &sparql.Result{Vars: vars, Bindings: out}, nil
}

// starVars lists the variables SELECT * projects: every variable in a
// subject, predicate or object position, in order of first appearance.
func starVars(g *sparql.Group, out []string, seen map[string]bool) []string {
	add := func(name string) {
		if name != "" && !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	for _, e := range g.Elems {
		switch el := e.(type) {
		case sparql.TriplePattern:
			add(el.S.Var)
			if pv, ok := el.P.(sparql.PathVar); ok {
				add(pv.Name)
			}
			add(el.O.Var)
		case sparql.Optional:
			out = starVars(el.Group, out, seen)
		case sparql.Union:
			out = starVars(el.Right, starVars(el.Left, out, seen), seen)
		}
	}
	return out
}

// scan calls fn on each triple of g that p matches.
func scan(g []rdf.Triple, p rdf.Pattern, fn func(rdf.Triple)) {
	for _, t := range g {
		if p.Matches(t) {
			fn(t)
		}
	}
}

func evalGroup(g []rdf.Triple, grp *sparql.Group, sols []binding) ([]binding, error) {
	var others []sparql.Element
	var filters []sparql.Filter
	for _, e := range grp.Elems {
		switch el := e.(type) {
		case sparql.TriplePattern:
			if len(sols) > 0 {
				sols = joinPattern(g, el, sols)
			}
		case sparql.Filter:
			filters = append(filters, el)
		default:
			others = append(others, e)
		}
	}
	for _, e := range others {
		var out []binding
		for _, s := range sols {
			switch el := e.(type) {
			case sparql.Optional:
				sub, err := evalGroup(g, el.Group, []binding{s})
				if err != nil {
					return nil, err
				}
				if len(sub) == 0 {
					sub = []binding{s}
				}
				out = append(out, sub...)
			case sparql.Union:
				for _, side := range []*sparql.Group{el.Left, el.Right} {
					sub, err := evalGroup(g, side, []binding{s})
					if err != nil {
						return nil, err
					}
					out = append(out, sub...)
				}
			}
		}
		sols = out
	}
	for _, f := range filters {
		var out []binding
		for _, s := range sols {
			// An evaluation error drops the solution, as FALSE does.
			if v, err := evalExpr(f.Expr, s); err == nil && isTrue(v) {
				out = append(out, s)
			}
		}
		sols = out
	}
	return sols, nil
}

// node returns the term n stands for under b, and whether it is bound.
func node(n sparql.NodePattern, b binding) (rdf.Term, bool) {
	if !n.IsVar() {
		return n.Term, true
	}
	t, ok := b[n.Var]
	return t, ok
}

// extend binds n to t in b: a constant or an already bound variable must
// equal t.
func extend(b binding, n sparql.NodePattern, t rdf.Term) (binding, bool) {
	if have, ok := node(n, b); ok {
		return b, have == t
	}
	return b.with(n.Var, t), true
}

func joinPattern(g []rdf.Triple, tp sparql.TriplePattern, input []binding) []binding {
	var out []binding
	for _, b := range input {
		s, sBound := node(tp.S, b)
		o, oBound := node(tp.O, b)
		emit := func(ps, po rdf.Term, b binding) {
			if nb, ok := extend(b, tp.S, ps); ok {
				if nb, ok = extend(nb, tp.O, po); ok {
					out = append(out, nb)
				}
			}
		}
		pv, isVar := tp.P.(sparql.PathVar)
		if !isVar {
			for _, pr := range evalPath(g, tp.P, s, sBound, o, oBound) {
				emit(pr[0], pr[1], b)
			}
			continue
		}
		pat := rdf.Pattern{}
		if sBound {
			pat.S = s
		}
		if oBound {
			pat.O = o
		}
		if p, ok := b[pv.Name]; ok {
			pat.P = p
		}
		scan(g, pat, func(t rdf.Triple) {
			nb := b
			if _, ok := b[pv.Name]; !ok {
				nb = b.with(pv.Name, t.P)
			}
			emit(t.S, t.O, nb)
		})
	}
	return out
}

// evalPath returns the (start, end) pairs of path p, with either end
// fixed when bound. Dialect: SPARQL 1.1 evaluates p/q and p|q with bag
// semantics, so two routes to one pair give two solutions; here each pair
// counts once.
func evalPath(g []rdf.Triple, p sparql.Path, s rdf.Term, sBound bool, o rdf.Term, oBound bool) [][2]rdf.Term {
	var out [][2]rdf.Term
	seen := map[[2]rdf.Term]bool{}
	addNew := func(pr [2]rdf.Term) {
		if !seen[pr] {
			seen[pr] = true
			out = append(out, pr)
		}
	}
	switch pp := p.(type) {
	case sparql.PathIRI, sparql.PathVar:
		pat := rdf.Pattern{}
		if iri, ok := pp.(sparql.PathIRI); ok {
			pat.P = iri.IRI
		}
		if sBound {
			pat.S = s
		}
		if oBound {
			pat.O = o
		}
		scan(g, pat, func(t rdf.Triple) { out = append(out, [2]rdf.Term{t.S, t.O}) })
	case sparql.PathInverse:
		for _, pr := range evalPath(g, pp.P, o, oBound, s, sBound) {
			out = append(out, [2]rdf.Term{pr[1], pr[0]})
		}
	case sparql.PathSeq:
		for _, l := range evalPath(g, pp.Left, s, sBound, rdf.Term{}, false) {
			for _, r := range evalPath(g, pp.Right, l[1], true, o, oBound) {
				addNew([2]rdf.Term{l[0], r[1]})
			}
		}
	case sparql.PathAlt:
		for _, side := range []sparql.Path{pp.Left, pp.Right} {
			for _, pr := range evalPath(g, side, s, sBound, o, oBound) {
				addNew(pr)
			}
		}
	case sparql.PathClosure:
		return evalClosure(g, pp, s, sBound, o, oBound)
	}
	return out
}

// evalClosure follows SPARQL 1.1 §18.5: p+ reaches its own start only
// through a cycle (the start counts at depth 0 only when zero-length paths
// do), and with both ends open the walks start from nodes(G), every
// subject and object.
func evalClosure(g []rdf.Triple, pc sparql.PathClosure, s rdf.Term, sBound bool, o rdf.Term, oBound bool) [][2]rdf.Term {
	reach := func(start rdf.Term) []rdf.Term {
		depth := map[rdf.Term]int{}
		if pc.Min == 0 {
			depth[start] = 0
		}
		frontier := []rdf.Term{start}
		for d := 1; len(frontier) > 0 && (pc.Max < 0 || d <= pc.Max); d++ {
			var next []rdf.Term
			for _, n := range frontier {
				for _, pr := range evalPath(g, pc.P, n, true, rdf.Term{}, false) {
					if _, ok := depth[pr[1]]; !ok {
						depth[pr[1]] = d
						next = append(next, pr[1])
					}
				}
			}
			frontier = next
		}
		var out []rdf.Term
		for n, d := range depth {
			if d >= pc.Min {
				out = append(out, n)
			}
		}
		return out
	}
	var out [][2]rdf.Term
	switch {
	case sBound:
		for _, t := range reach(s) {
			if !oBound || t == o {
				out = append(out, [2]rdf.Term{s, t})
			}
		}
	case oBound:
		inv := sparql.PathClosure{P: sparql.PathInverse{P: pc.P}, Min: pc.Min, Max: pc.Max}
		for _, pr := range evalClosure(g, inv, o, true, rdf.Term{}, false) {
			out = append(out, [2]rdf.Term{pr[1], pr[0]})
		}
	default:
		nodes := map[rdf.Term]bool{}
		for _, t := range g {
			nodes[t.S], nodes[t.O] = true, true
		}
		for n := range nodes {
			for _, t := range reach(n) {
				out = append(out, [2]rdf.Term{n, t})
			}
		}
	}
	return out
}

// errUnbound is the error of an expression over an unbound variable.
var errUnbound = errors.New("oracle: unbound variable")

func evalExpr(e sparql.Expr, b binding) (rdf.Term, error) {
	switch ex := e.(type) {
	case sparql.Lit:
		return ex.Term, nil
	case sparql.VarRef:
		if t, ok := b[ex.Name]; ok {
			return t, nil
		}
		return rdf.Term{}, errUnbound
	case sparql.Not:
		v, err := evalExpr(ex.E, b)
		return boolTerm(!isTrue(v)), err
	case sparql.Binary:
		return evalBinary(ex, b)
	case sparql.Call:
		return evalCall(ex, b)
	}
	return rdf.Term{}, fmt.Errorf("oracle: unknown expression %T", e)
}

func evalBinary(ex sparql.Binary, b binding) (rdf.Term, error) {
	l, lerr := evalExpr(ex.L, b)
	r, rerr := evalExpr(ex.R, b)
	switch ex.Op {
	case sparql.OpAnd, sparql.OpOr:
		// SPARQL 1.1 §17.2: FALSE && error is FALSE, TRUE || error is
		// TRUE; otherwise an error on either side is the result.
		decisive := ex.Op == sparql.OpOr
		if lerr == nil && isTrue(l) == decisive || rerr == nil && isTrue(r) == decisive {
			return boolTerm(decisive), nil
		}
		if err := errors.Join(lerr, rerr); err != nil {
			return rdf.Term{}, err
		}
		return boolTerm(!decisive), nil
	}
	if err := errors.Join(lerr, rerr); err != nil {
		return rdf.Term{}, err
	}
	c := compareTerms(l, r)
	switch ex.Op {
	case sparql.OpEq:
		return boolTerm(c == 0), nil
	case sparql.OpNe:
		return boolTerm(c != 0), nil
	case sparql.OpLt:
		return boolTerm(c < 0), nil
	case sparql.OpLe:
		return boolTerm(c <= 0), nil
	case sparql.OpGt:
		return boolTerm(c > 0), nil
	case sparql.OpGe:
		return boolTerm(c >= 0), nil
	}
	return rdf.Term{}, fmt.Errorf("oracle: unknown operator %v", ex.Op)
}

func evalCall(ex sparql.Call, b binding) (rdf.Term, error) {
	// A call with the wrong arguments is an error when evaluated, so it
	// drops the solution rather than failing the query.
	if ex.Name == "BOUND" {
		if len(ex.Args) != 1 {
			return rdf.Term{}, fmt.Errorf("oracle: BOUND takes one variable")
		}
		v, ok := ex.Args[0].(sparql.VarRef)
		if !ok {
			return rdf.Term{}, fmt.Errorf("oracle: BOUND takes one variable")
		}
		_, bound := b[v.Name]
		return boolTerm(bound), nil
	}
	if n := len(ex.Args); ex.Name == "REGEX" && n != 2 && n != 3 || ex.Name != "REGEX" && n != 1 {
		return rdf.Term{}, fmt.Errorf("oracle: %s with %d argument(s)", ex.Name, n)
	}
	args := make([]rdf.Term, len(ex.Args))
	for i, a := range ex.Args {
		t, err := evalExpr(a, b)
		if err != nil {
			return rdf.Term{}, err
		}
		args[i] = t
	}
	switch ex.Name {
	case "STR":
		return rdf.NewLiteral(args[0].Value), nil
	case "ISIRI":
		return boolTerm(args[0].IsIRI()), nil
	case "ISLITERAL":
		return boolTerm(args[0].IsLiteral()), nil
	case "REGEX":
		pat := args[1].Value
		if len(args) == 3 && strings.Contains(args[2].Value, "i") {
			pat = "(?i)" + pat
		}
		re, err := regexp.Compile(pat)
		if err != nil {
			return rdf.Term{}, fmt.Errorf("oracle: REGEX pattern: %w", err)
		}
		return boolTerm(re.MatchString(args[0].Value)), nil
	}
	return rdf.Term{}, fmt.Errorf("oracle: unknown function %s", ex.Name)
}

func boolTerm(v bool) rdf.Term {
	return rdf.NewTypedLiteral(strconv.FormatBool(v), rdf.XSDBoolean)
}

// isTrue reports whether t is the boolean literal true. Dialect: SPARQL
// 1.1 §17.2.2 takes the effective boolean value of any literal (a nonzero
// number, a nonempty string); here only xsd:boolean true counts.
func isTrue(t rdf.Term) bool {
	return t.Kind == rdf.Literal && t.Datatype == rdf.XSDBoolean && t.Value == "true"
}

// compareTerms orders two terms. An unbound (zero) term sorts first;
// then the kinds sort IRI, literal, blank node. A literal that reads as
// xsd:integer or xsd:double is a number, and the numbers sort before every
// other literal: by value, with NaN after every other number and equal to
// NaN. Anything else compares by rdf.Term.Compare (kind, then lexical
// form, then datatype).
func compareTerms(a, b rdf.Term) int {
	if a.IsZero() || b.IsZero() {
		return boolCmp(b.IsZero(), a.IsZero())
	}
	af, aNum := parseNum(a)
	bf, bNum := parseNum(b)
	switch {
	case aNum && bNum:
		if math.IsNaN(af) || math.IsNaN(bf) {
			return boolCmp(math.IsNaN(af), math.IsNaN(bf))
		}
		return cmp.Compare(af, bf)
	case aNum && b.Kind == rdf.Literal:
		return -1
	case bNum && a.Kind == rdf.Literal:
		return 1
	}
	return a.Compare(b)
}

// boolCmp orders false before true.
func boolCmp(a, b bool) int {
	switch {
	case a == b:
		return 0
	case a:
		return 1
	}
	return -1
}

// parseNum reads a numeric literal (xsd:integer or xsd:double) as a
// float64.
func parseNum(t rdf.Term) (float64, bool) {
	if t.Kind != rdf.Literal || t.Datatype != rdf.XSDInteger && t.Datatype != rdf.XSDDouble {
		return 0, false
	}
	f, err := strconv.ParseFloat(t.Value, 64)
	return f, err == nil
}
