package sparql

// parity_test.go — semantic parity between the ID-native slot executor and
// the seed engine's term-level evaluation. refEvalQuery below is a faithful
// port of the pre-compilation evaluator (string-keyed Binding maps, full
// inter-stage materialisation); the suite asserts the compiled executor
// returns identical solution sets across OPTIONAL / UNION / FILTER /
// ORDER BY / DISTINCT / OFFSET+LIMIT and property paths, and a property
// test round-trips random BGPs through both the slot path and plain
// term-level matching. The executor reads a fixture's view; the reference
// reads the fixture's triples through Pattern.Matches.

import (
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"

	"crosse/internal/rdf"
)

// --- reference evaluator (port of the seed engine) ---

func refEvalQuery(g []rdf.Triple, q *Query) (*Result, error) {
	sols, err := refEvalGroup(g, q.Where, []Binding{{}})
	if err != nil {
		return nil, err
	}
	if q.Form == Ask {
		return &Result{Bool: len(sols) > 0}, nil
	}

	vars := q.Vars
	if q.Star {
		seen := map[string]struct{}{}
		collectVars(q.Where, &vars, seen)
	}

	if len(q.Order) > 0 {
		sort.SliceStable(sols, func(i, j int) bool {
			for _, k := range q.Order {
				c := compareTerms(sols[i][k.Var], sols[j][k.Var])
				if c != 0 {
					if k.Desc {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		})
	}

	out := make([]Binding, 0, len(sols))
	var dedup map[string]struct{}
	if q.Distinct {
		dedup = map[string]struct{}{}
	}
	for _, s := range sols {
		proj := make(Binding, len(vars))
		for _, v := range vars {
			if t, ok := s[v]; ok {
				proj[v] = t
			}
		}
		if q.Distinct {
			key := refBindingKey(proj, vars)
			if _, dup := dedup[key]; dup {
				continue
			}
			dedup[key] = struct{}{}
		}
		out = append(out, proj)
	}

	if q.Offset > 0 {
		if q.Offset >= len(out) {
			out = nil
		} else {
			out = out[q.Offset:]
		}
	}
	if q.Limit >= 0 && q.Limit < len(out) {
		out = out[:q.Limit]
	}
	return &Result{Vars: vars, Bindings: out}, nil
}

func refBindingKey(b Binding, vars []string) string {
	var sb strings.Builder
	for _, v := range vars {
		if t, ok := b[v]; ok {
			sb.WriteString(t.String())
		}
		sb.WriteByte('\x00')
	}
	return sb.String()
}

func refEvalGroup(g []rdf.Triple, grp *Group, input []Binding) ([]Binding, error) {
	var triples []TriplePattern
	var others []Element
	var filters []Filter
	for _, e := range grp.Elems {
		switch el := e.(type) {
		case TriplePattern:
			triples = append(triples, el)
		case Filter:
			filters = append(filters, el)
		default:
			others = append(others, e)
		}
	}

	sols := input
	for _, tp := range triples {
		var err error
		sols, err = refJoinPattern(g, tp, sols)
		if err != nil {
			return nil, err
		}
		if len(sols) == 0 {
			break
		}
	}

	for _, e := range others {
		switch el := e.(type) {
		case Optional:
			var out []Binding
			for _, s := range sols {
				sub, err := refEvalGroup(g, el.Group, []Binding{s})
				if err != nil {
					return nil, err
				}
				if len(sub) == 0 {
					out = append(out, s)
				} else {
					out = append(out, sub...)
				}
			}
			sols = out
		case Union:
			var out []Binding
			for _, s := range sols {
				l, err := refEvalGroup(g, el.Left, []Binding{s})
				if err != nil {
					return nil, err
				}
				r, err := refEvalGroup(g, el.Right, []Binding{s})
				if err != nil {
					return nil, err
				}
				out = append(out, l...)
				out = append(out, r...)
			}
			sols = out
		}
	}

	for _, f := range filters {
		var out []Binding
		for _, s := range sols {
			v, err := refEvalExpr(f.Expr, s)
			if err == nil && isTrue(v) {
				out = append(out, s)
			}
		}
		sols = out
	}
	return sols, nil
}

func refJoinPattern(g []rdf.Triple, tp TriplePattern, input []Binding) ([]Binding, error) {
	var out []Binding
	for _, b := range input {
		sTerm, sBound := refResolveNode(tp.S, b)
		oTerm, oBound := refResolveNode(tp.O, b)

		switch p := tp.P.(type) {
		case PathVar:
			pTerm, pBound := rdf.Term{}, false
			if t, ok := b[p.Name]; ok {
				pTerm, pBound = t, true
			}
			pat := rdf.Pattern{}
			if sBound {
				pat.S = sTerm
			}
			if pBound {
				pat.P = pTerm
			}
			if oBound {
				pat.O = oTerm
			}
			scan(g, pat, func(t rdf.Triple) bool {
				nb, ok := refExtend(b, tp.S, t.S)
				if !ok {
					return true
				}
				if !pBound {
					nb = nb.clone()
					nb[p.Name] = t.P
				} else if pTerm != t.P {
					return true
				}
				nb2, ok := refExtend(nb, tp.O, t.O)
				if !ok {
					return true
				}
				out = append(out, nb2)
				return true
			})
		default:
			for _, pr := range refEvalPath(g, tp.P, sTerm, sBound, oTerm, oBound) {
				nb, ok := refExtend(b, tp.S, pr[0])
				if !ok {
					continue
				}
				nb2, ok := refExtend(nb, tp.O, pr[1])
				if !ok {
					continue
				}
				out = append(out, nb2)
			}
		}
	}
	return out, nil
}

func refResolveNode(n NodePattern, b Binding) (rdf.Term, bool) {
	if !n.IsVar() {
		return n.Term, true
	}
	t, ok := b[n.Var]
	return t, ok
}

func refExtend(b Binding, n NodePattern, t rdf.Term) (Binding, bool) {
	if !n.IsVar() {
		if n.Term == t {
			return b, true
		}
		return nil, false
	}
	if old, ok := b[n.Var]; ok {
		if old == t {
			return b, true
		}
		return nil, false
	}
	nb := b.clone()
	nb[n.Var] = t
	return nb, true
}

func refEvalPath(g []rdf.Triple, p Path, s rdf.Term, sBound bool, o rdf.Term, oBound bool) [][2]rdf.Term {
	switch pp := p.(type) {
	case PathIRI:
		var out [][2]rdf.Term
		pat := rdf.Pattern{P: pp.IRI}
		if sBound {
			pat.S = s
		}
		if oBound {
			pat.O = o
		}
		scan(g, pat, func(t rdf.Triple) bool {
			out = append(out, [2]rdf.Term{t.S, t.O})
			return true
		})
		return out
	case PathInverse:
		inv := refEvalPath(g, pp.P, o, oBound, s, sBound)
		out := make([][2]rdf.Term, len(inv))
		for i, pr := range inv {
			out[i] = [2]rdf.Term{pr[1], pr[0]}
		}
		return out
	case PathSeq:
		var out [][2]rdf.Term
		seen := map[[2]rdf.Term]struct{}{}
		for _, lp := range refEvalPath(g, pp.Left, s, sBound, rdf.Term{}, false) {
			for _, rp := range refEvalPath(g, pp.Right, lp[1], true, o, oBound) {
				pair := [2]rdf.Term{lp[0], rp[1]}
				if _, dup := seen[pair]; !dup {
					seen[pair] = struct{}{}
					out = append(out, pair)
				}
			}
		}
		return out
	case PathAlt:
		out := refEvalPath(g, pp.Left, s, sBound, o, oBound)
		seen := map[[2]rdf.Term]struct{}{}
		for _, pr := range out {
			seen[pr] = struct{}{}
		}
		for _, pr := range refEvalPath(g, pp.Right, s, sBound, o, oBound) {
			if _, dup := seen[pr]; !dup {
				out = append(out, pr)
			}
		}
		return out
	case PathClosure:
		return refEvalClosure(g, pp, s, sBound, o, oBound)
	case PathVar:
		var out [][2]rdf.Term
		pat := rdf.Pattern{}
		if sBound {
			pat.S = s
		}
		if oBound {
			pat.O = o
		}
		scan(g, pat, func(t rdf.Triple) bool {
			out = append(out, [2]rdf.Term{t.S, t.O})
			return true
		})
		return out
	default:
		return nil
	}
}

// refEvalClosure is the seed engine's closure with two fixes to its
// SPARQL 1.1 §18.5 semantics: p+ reaches its own start through a cycle
// (the start is visited at depth 0 only when zero-length paths count), and
// with both ends open the walks start from nodes(G), every subject and
// object, rather than from the subjects alone.
func refEvalClosure(g []rdf.Triple, pc PathClosure, s rdf.Term, sBound bool, o rdf.Term, oBound bool) [][2]rdf.Term {
	reach := func(start rdf.Term) []rdf.Term {
		visited := map[rdf.Term]int{}
		if pc.Min == 0 {
			visited[start] = 0
		}
		frontier := []rdf.Term{start}
		depth := 0
		for len(frontier) > 0 {
			depth++
			if pc.Max >= 0 && depth > pc.Max {
				break
			}
			var next []rdf.Term
			for _, node := range frontier {
				for _, pr := range refEvalPath(g, pc.P, node, true, rdf.Term{}, false) {
					if _, ok := visited[pr[1]]; !ok {
						visited[pr[1]] = depth
						next = append(next, pr[1])
					}
				}
			}
			frontier = next
		}
		var out []rdf.Term
		for node, d := range visited {
			if d >= pc.Min {
				out = append(out, node)
			}
		}
		return out
	}

	switch {
	case sBound:
		var out [][2]rdf.Term
		for _, t := range reach(s) {
			if oBound && t != o {
				continue
			}
			out = append(out, [2]rdf.Term{s, t})
		}
		return out
	case oBound:
		inv := refEvalClosure(g, PathClosure{P: PathInverse{P: pc.P}, Min: pc.Min, Max: pc.Max}, o, true, rdf.Term{}, false)
		out := make([][2]rdf.Term, len(inv))
		for i, pr := range inv {
			out[i] = [2]rdf.Term{pr[1], pr[0]}
		}
		return out
	default:
		nodes := map[rdf.Term]struct{}{}
		scan(g, rdf.Pattern{}, func(t rdf.Triple) bool {
			nodes[t.S] = struct{}{}
			nodes[t.O] = struct{}{}
			return true
		})
		var out [][2]rdf.Term
		for n := range nodes {
			for _, t := range reach(n) {
				out = append(out, [2]rdf.Term{n, t})
			}
		}
		return out
	}
}

func refEvalExpr(e Expr, b Binding) (rdf.Term, error) {
	switch ex := e.(type) {
	case Lit:
		return ex.Term, nil
	case VarRef:
		t, ok := b[ex.Name]
		if !ok {
			return rdf.Term{}, errUnbound
		}
		return t, nil
	case Not:
		v, err := refEvalExpr(ex.E, b)
		if err != nil {
			return rdf.Term{}, err
		}
		return boolTerm(!isTrue(v)), nil
	case Binary:
		return refEvalBinary(ex, b)
	case Call:
		return refEvalCall(ex, b)
	default:
		return rdf.Term{}, fmt.Errorf("sparql: unknown expression %T", e)
	}
}

func refEvalBinary(ex Binary, b Binding) (rdf.Term, error) {
	switch ex.Op {
	case OpAnd, OpOr:
		l, lerr := refEvalExpr(ex.L, b)
		r, rerr := refEvalExpr(ex.R, b)
		if ex.Op == OpAnd {
			if lerr == nil && !isTrue(l) || rerr == nil && !isTrue(r) {
				return boolTerm(false), nil
			}
			if lerr != nil {
				return rdf.Term{}, lerr
			}
			if rerr != nil {
				return rdf.Term{}, rerr
			}
			return boolTerm(true), nil
		}
		if lerr == nil && isTrue(l) || rerr == nil && isTrue(r) {
			return boolTerm(true), nil
		}
		if lerr != nil {
			return rdf.Term{}, lerr
		}
		if rerr != nil {
			return rdf.Term{}, rerr
		}
		return boolTerm(false), nil
	}
	l, err := refEvalExpr(ex.L, b)
	if err != nil {
		return rdf.Term{}, err
	}
	r, err := refEvalExpr(ex.R, b)
	if err != nil {
		return rdf.Term{}, err
	}
	c := compareTerms(l, r)
	switch ex.Op {
	case OpEq:
		return boolTerm(c == 0), nil
	case OpNe:
		return boolTerm(c != 0), nil
	case OpLt:
		return boolTerm(c < 0), nil
	case OpLe:
		return boolTerm(c <= 0), nil
	case OpGt:
		return boolTerm(c > 0), nil
	case OpGe:
		return boolTerm(c >= 0), nil
	}
	return rdf.Term{}, fmt.Errorf("sparql: unknown operator %v", ex.Op)
}

func refEvalCall(ex Call, b Binding) (rdf.Term, error) {
	switch ex.Name {
	case "BOUND":
		if len(ex.Args) != 1 {
			return rdf.Term{}, fmt.Errorf("sparql: BOUND takes 1 argument")
		}
		v, ok := ex.Args[0].(VarRef)
		if !ok {
			return rdf.Term{}, fmt.Errorf("sparql: BOUND argument must be a variable")
		}
		_, bound := b[v.Name]
		return boolTerm(bound), nil
	case "STR":
		t, err := refEvalExpr(ex.Args[0], b)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewLiteral(t.Value), nil
	case "ISIRI":
		t, err := refEvalExpr(ex.Args[0], b)
		if err != nil {
			return rdf.Term{}, err
		}
		return boolTerm(t.IsIRI()), nil
	case "ISLITERAL":
		t, err := refEvalExpr(ex.Args[0], b)
		if err != nil {
			return rdf.Term{}, err
		}
		return boolTerm(t.IsLiteral()), nil
	case "REGEX":
		t, err := refEvalExpr(ex.Args[0], b)
		if err != nil {
			return rdf.Term{}, err
		}
		p, err := refEvalExpr(ex.Args[1], b)
		if err != nil {
			return rdf.Term{}, err
		}
		pat := p.Value
		if len(ex.Args) == 3 {
			f, err := refEvalExpr(ex.Args[2], b)
			if err != nil {
				return rdf.Term{}, err
			}
			if strings.Contains(f.Value, "i") {
				pat = "(?i)" + pat
			}
		}
		re, err := regexp.Compile(pat)
		if err != nil {
			return rdf.Term{}, fmt.Errorf("sparql: bad REGEX pattern: %w", err)
		}
		return boolTerm(re.MatchString(t.Value)), nil
	default:
		return rdf.Term{}, fmt.Errorf("sparql: unknown function %s", ex.Name)
	}
}

// --- the parity suite ---

// parityStore extends sampleStore with numeric data, multi-valued
// properties and deeper structure so every solution-modifier path has work
// to do.
func parityStore() *fixture {
	st := sampleStore()
	for i := 0; i < 12; i++ {
		s := iri(fmt.Sprintf("site%d", i))
		st.Add(rdf.Triple{S: s, P: iri("rank"),
			O: rdf.NewTypedLiteral(fmt.Sprint(i), rdf.XSDInteger)})
		st.Add(rdf.Triple{S: s, P: iri("zone"), O: iri(fmt.Sprintf("zone%d", i%3))})
		if i%2 == 0 {
			st.Add(rdf.Triple{S: s, P: iri("audited"), O: rdf.NewLiteral("yes")})
		}
		if i%4 == 0 {
			st.Add(rdf.Triple{S: s, P: iri("contains"), O: iri("Mercury")})
			st.Add(rdf.Triple{S: s, P: iri("contains"), O: iri("Gold")})
		}
	}
	return st
}

// renderSeq renders bindings in result order (no sorting) for exact
// order-sensitive comparison.
func renderSeq(bs []Binding, vars []string) []string {
	out := make([]string, 0, len(bs))
	for _, b := range bs {
		s := ""
		for _, v := range vars {
			if t, ok := b[v]; ok {
				s += t.String() + ";"
			} else {
				s += "_;"
			}
		}
		out = append(out, s)
	}
	return out
}

// forceParallel drops the parallel-path thresholds so the small parity
// fixtures split into many morsels and exercise the scheduler, restoring
// the production values on cleanup.
func forceParallel(t *testing.T) {
	t.Helper()
	minM, morsel := parMinMatches, parMorselMatches
	parMinMatches, parMorselMatches = 1, 5
	t.Cleanup(func() { parMinMatches, parMorselMatches = minM, morsel })
}

// parityEvalOptions covers the executor's settings: the default, the
// forced-serial path, and parallel evaluation at several widths.
var parityEvalOptions = []Options{
	{},
	{Parallelism: 1},
	{Parallelism: 2},
	{Parallelism: 4},
}

func TestExecutorParityWithSeedSemantics(t *testing.T) {
	forceParallel(t)
	st := parityStore()
	pre := `PREFIX s: <` + onto + `> `
	cases := []struct {
		name  string
		query string
		// ordered: compare exact result sequences (ORDER BY with unique
		// keys). count: solution order is implementation-defined across the
		// cut, compare sizes and subset-ness (OFFSET/LIMIT without ORDER
		// BY). Default: compare solution multisets.
		ordered bool
		count   bool
	}{
		{name: "optional", query: pre + `SELECT ?x ?d WHERE { ?x s:isA ?c . OPTIONAL { ?x s:dangerLevel ?d } }`},
		{name: "optional nested", query: pre + `SELECT ?x ?d ?w WHERE { ?x s:isA ?c . OPTIONAL { ?x s:dangerLevel ?d . OPTIONAL { ?x s:weight ?w } } }`},
		{name: "union", query: pre + `SELECT ?x WHERE { { ?x s:isA s:PreciousMetal } UNION { ?x s:dangerLevel "high" } }`},
		{name: "union constrained", query: pre + `SELECT ?x ?y WHERE { ?x s:dangerLevel "high" . { ?x s:isA s:HazardousWaste } UNION { ?x s:foundWith ?y } }`},
		{name: "filter comparison", query: pre + `SELECT ?x WHERE { ?x s:weight ?w . FILTER (?w > 200) }`},
		{name: "filter pushdown multi", query: pre + `SELECT ?site ?r WHERE { ?site s:rank ?r . ?site s:zone ?z . FILTER (?r >= 4) . FILTER (?z != s:zone1) }`},
		{name: "filter bound optional", query: pre + `SELECT ?site WHERE { ?site s:rank ?r . OPTIONAL { ?site s:audited ?a } FILTER (!BOUND(?a)) }`},
		{name: "filter regex", query: pre + `SELECT ?x WHERE { ?x s:isA ?c . FILTER REGEX(STR(?x), "e") }`},
		{name: "filter logic", query: pre + `SELECT ?x WHERE { ?x s:dangerLevel ?d . FILTER (?d = "high" || ISIRI(?x) && ?d != "low") }`},
		{name: "order by", query: pre + `SELECT ?site ?r WHERE { ?site s:rank ?r } ORDER BY DESC(?r)`, ordered: true},
		{name: "order by unbound first", query: pre + `SELECT ?x ?d WHERE { ?x s:isA ?c . OPTIONAL { ?x s:dangerLevel ?d } } ORDER BY ?d ?x`, ordered: true},
		{name: "distinct", query: pre + `SELECT DISTINCT ?z WHERE { ?site s:zone ?z }`},
		{name: "distinct multi-var", query: pre + `SELECT DISTINCT ?z ?a WHERE { ?site s:zone ?z . OPTIONAL { ?site s:audited ?a } }`},
		{name: "order offset limit", query: pre + `SELECT ?site ?r WHERE { ?site s:rank ?r } ORDER BY ?r OFFSET 3 LIMIT 4`, ordered: true},
		{name: "offset limit unordered", query: pre + `SELECT ?site WHERE { ?site s:rank ?r } OFFSET 2 LIMIT 5`, count: true},
		{name: "distinct order limit", query: pre + `SELECT DISTINCT ?r WHERE { ?site s:rank ?r } ORDER BY DESC(?r) LIMIT 3`, ordered: true},
		{name: "path seq", query: pre + `SELECT ?c WHERE { s:Mercury s:isA/s:subClassOf* ?c }`},
		{name: "path alt inverse", query: pre + `SELECT ?x WHERE { s:Lead ^s:foundWith|s:isA ?x }`},
		{name: "path closure join", query: pre + `SELECT ?x ?c WHERE { ?x s:isA s:HazardousWaste . ?x s:isA/s:subClassOf+ ?c }`},
		{name: "path nested closure", query: pre + `SELECT ?x ?c WHERE { ?x (s:isA/s:subClassOf*)+ ?c }`},
		{name: "var predicate", query: pre + `SELECT ?p ?o WHERE { s:Mercury ?p ?o }`},
		{name: "ask true", query: pre + `ASK { ?x s:contains s:Gold }`},
		{name: "ask false", query: pre + `ASK { s:Gold s:contains ?x }`},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, err := Parse(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refEvalQuery(st.triples, q)
			if err != nil {
				t.Fatal(err)
			}
			for _, opts := range parityEvalOptions {
				got, err := EvalQueryOpts(st, q, opts)
				if err != nil {
					t.Fatal(err)
				}
				if q.Form == Ask {
					if got.Bool != want.Bool {
						t.Fatalf("ASK: got %v, want %v", got.Bool, want.Bool)
					}
					continue
				}
				if !reflect.DeepEqual(got.Vars, want.Vars) {
					t.Fatalf("vars: got %v, want %v", got.Vars, want.Vars)
				}
				switch {
				case tc.ordered:
					g := renderSeq(got.Bindings, got.Vars)
					w := renderSeq(want.Bindings, want.Vars)
					if !reflect.DeepEqual(g, w) {
						t.Fatalf("ordered results differ (opts=%+v):\n got %v\nwant %v", opts, g, w)
					}
				case tc.count:
					if len(got.Bindings) != len(want.Bindings) {
						t.Fatalf("result size: got %d, want %d", len(got.Bindings), len(want.Bindings))
					}
					// Every returned solution must be a solution of the
					// unmodified query.
					full := *q
					full.Offset, full.Limit = 0, -1
					all, err := refEvalQuery(st.triples, &full)
					if err != nil {
						t.Fatal(err)
					}
					allSet := map[string]struct{}{}
					for _, s := range renderBindings(all.Bindings, got.Vars) {
						allSet[s] = struct{}{}
					}
					for _, s := range renderBindings(got.Bindings, got.Vars) {
						if _, ok := allSet[s]; !ok {
							t.Fatalf("solution %q not produced by the unmodified query", s)
						}
					}
				default:
					g := renderBindings(got.Bindings, got.Vars)
					w := renderBindings(want.Bindings, want.Vars)
					if !reflect.DeepEqual(g, w) {
						t.Fatalf("solution sets differ (opts=%+v):\n got %v\nwant %v", opts, g, w)
					}
				}
			}
		})
	}
}

// TestExecutorParityUnknownConstants pins the zero-length-path corner: a
// closure with Min 0 from a constant the store has never interned still
// yields the reflexive solution, exactly like term-level evaluation. The
// constant's synthetic ID, counted down from the top of the ID space, must
// never index a closure's visited bitset (512 MB), nested closures
// included.
func TestExecutorParityUnknownConstants(t *testing.T) {
	st := parityStore()
	pre := `PREFIX s: <` + onto + `> `
	for _, src := range []string{
		pre + `SELECT ?c WHERE { s:NeverSeen s:subClassOf* ?c }`,
		pre + `SELECT ?x WHERE { ?x s:isA s:NeverSeen }`,
		pre + `ASK { s:NeverSeen s:isA s:AlsoNeverSeen }`,
		pre + `SELECT ?c WHERE { s:NeverSeen (s:subClassOf*)+ ?c }`,
		pre + `SELECT ?c WHERE { ?c (^s:subClassOf?)* s:NeverSeen }`,
		pre + `ASK { s:NeverSeen (s:isA/s:subClassOf*)* s:NeverSeen }`,
	} {
		q, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refEvalQuery(st.triples, q)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := EvalQuery(st, q)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 16<<20 {
			t.Fatalf("%s allocated %d MB", src, n>>20)
		}
		if q.Form == Ask {
			if got.Bool != want.Bool {
				t.Fatalf("%s: ASK got %v want %v", src, got.Bool, want.Bool)
			}
			continue
		}
		g := renderBindings(got.Bindings, got.Vars)
		w := renderBindings(want.Bindings, want.Vars)
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s:\n got %v\nwant %v", src, g, w)
		}
	}
}

// --- property test: random BGPs, slot path vs term-level matching ---

// naiveBGPJoin evaluates a BGP by brute-force term-level matching over a
// triple list: enumerate all triples per pattern with Pattern.Matches-style
// consistency checks on string-keyed bindings.
func naiveBGPJoin(g []rdf.Triple, patterns []TriplePattern) []Binding {
	sols := []Binding{{}}
	for _, tp := range patterns {
		var next []Binding
		for _, b := range sols {
			scan(g, rdf.Pattern{}, func(t rdf.Triple) bool {
				nb := b.clone()
				bind := func(n NodePattern, term rdf.Term) bool {
					if !n.IsVar() {
						return n.Term == term
					}
					if old, ok := nb[n.Var]; ok {
						return old == term
					}
					nb[n.Var] = term
					return true
				}
				if !bind(tp.S, t.S) {
					return true
				}
				switch p := tp.P.(type) {
				case PathIRI:
					if p.IRI != t.P {
						return true
					}
				case PathVar:
					if old, ok := nb[p.Name]; ok {
						if old != t.P {
							return true
						}
					} else {
						nb[p.Name] = t.P
					}
				}
				if !bind(tp.O, t.O) {
					return true
				}
				next = append(next, nb)
				return true
			})
		}
		sols = next
	}
	return sols
}

func TestRandomBGPsSlotPathVsTermLevel(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(97))
	const ns = "http://x/"
	varNames := []string{"x", "y", "z", "w"}
	for trial := 0; trial < 80; trial++ {
		st := newFixture()
		var triples []rdf.Triple
		for i := 0; i < 50; i++ {
			tr := rdf.Triple{
				S: rdf.NewIRI(fmt.Sprintf("%ss%d", ns, rng.Intn(7))),
				P: rdf.NewIRI(fmt.Sprintf("%sp%d", ns, rng.Intn(4))),
				O: rdf.NewIRI(fmt.Sprintf("%so%d", ns, rng.Intn(7))),
			}
			st.Add(tr)
			triples = append(triples, tr)
		}

		node := func() NodePattern {
			if rng.Intn(2) == 0 {
				return Variable(varNames[rng.Intn(len(varNames))])
			}
			// A constant sampled from the data (mostly) or a miss.
			if rng.Intn(8) == 0 {
				return Node(rdf.NewIRI(ns + "missing"))
			}
			tr := triples[rng.Intn(len(triples))]
			if rng.Intn(2) == 0 {
				return Node(tr.S)
			}
			return Node(tr.O)
		}
		pred := func() Path {
			if rng.Intn(4) == 0 {
				return PathVar{Name: varNames[rng.Intn(len(varNames))]}
			}
			return PathIRI{IRI: rdf.NewIRI(fmt.Sprintf("%sp%d", ns, rng.Intn(4)))}
		}

		n := 1 + rng.Intn(3)
		patterns := make([]TriplePattern, n)
		elems := make([]Element, n)
		for i := range patterns {
			patterns[i] = TriplePattern{S: node(), P: pred(), O: node()}
			elems[i] = patterns[i]
		}

		vars := []string{}
		seen := map[string]struct{}{}
		grp := &Group{Elems: elems}
		collectVars(grp, &vars, seen)
		q := &Query{Limit: -1, Vars: vars, Where: grp}

		want := renderBindings(naiveBGPJoin(st.triples, patterns), vars)
		for _, opts := range []Options{{}, {Parallelism: 2}, {Parallelism: 4}} {
			res, err := EvalQueryOpts(st, q, opts)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			got := renderBindings(res.Bindings, vars)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (opts=%+v): slot path %d solutions, term-level %d\npatterns: %v",
					trial, opts, len(got), len(want), patterns)
			}
		}
	}
}
