package sparql

// parallel_test.go — regression tests for the morsel-driven parallel path
// (parallel.go). The ordered contract under test: ORDER BY output — and
// any OFFSET/LIMIT window over it — is byte-identical at every
// Parallelism setting, ties included. The executor guarantees this by
// making the sort a total order (full-row ID tiebreak, see emitSorted),
// so low-cardinality order keys are exactly what these queries use.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"crosse/internal/rdf"
)

// TestParallelOrderedDeterminism runs 100 randomised ORDER BY (+ OFFSET /
// LIMIT) queries over a tie-heavy store and requires the parallel results
// at 2 and 4 workers to be byte-identical to the forced-serial result.
func TestParallelOrderedDeterminism(t *testing.T) {
	forceParallel(t)
	const ns = "http://x/"
	p := func(name string) rdf.Term { return rdf.NewIRI(ns + name) }
	st := newFixture()
	// Seven rank values and five zones over 300 subjects: every sort key
	// ties heavily, so any order instability between the serial and
	// parallel paths shows up immediately.
	for i := 0; i < 300; i++ {
		s := rdf.NewIRI(fmt.Sprintf("%se%03d", ns, i))
		st.Add(rdf.Triple{S: s, P: p("rank"),
			O: rdf.NewTypedLiteral(fmt.Sprint(i%7), rdf.XSDInteger)})
		st.Add(rdf.Triple{S: s, P: p("zone"), O: rdf.NewIRI(fmt.Sprintf("%szone%d", ns, i%5))})
		if i%3 == 0 {
			st.Add(rdf.Triple{S: s, P: p("tag"), O: rdf.NewLiteral(fmt.Sprintf("t%d", i%4))})
		}
	}

	rng := rand.New(rand.NewSource(59))
	projections := []string{"?x ?r", "?r ?z", "?x ?r ?z", "?z", "?r ?t"}
	orders := []string{
		" ORDER BY ?r",
		" ORDER BY DESC(?r)",
		" ORDER BY ?z ?r",
		" ORDER BY DESC(?z) ?r",
		" ORDER BY ?t ?r",
	}
	for q := 0; q < 100; q++ {
		var b strings.Builder
		b.WriteString("SELECT ")
		if rng.Intn(3) == 0 {
			b.WriteString("DISTINCT ")
		}
		b.WriteString(projections[rng.Intn(len(projections))])
		b.WriteString(fmt.Sprintf(" WHERE { ?x <%srank> ?r . ?x <%szone> ?z .", ns, ns))
		if rng.Intn(2) == 0 {
			b.WriteString(fmt.Sprintf(" OPTIONAL { ?x <%stag> ?t }", ns))
		}
		if rng.Intn(3) == 0 {
			b.WriteString(" FILTER (?r > 1)")
		}
		b.WriteString(" }")
		b.WriteString(orders[rng.Intn(len(orders))])
		if rng.Intn(2) == 0 {
			b.WriteString(fmt.Sprintf(" LIMIT %d", rng.Intn(25)+1))
			if rng.Intn(2) == 0 {
				b.WriteString(fmt.Sprintf(" OFFSET %d", rng.Intn(10)))
			}
		}
		text := b.String()

		qu, err := Parse(text)
		if err != nil {
			t.Fatalf("generated unparseable query %q: %v", text, err)
		}
		base, err := compileEval(st, qu, Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("%q serial: %v", text, err)
		}
		want := renderSeq(base.Bindings, base.Vars)
		for _, par := range []int{2, 4} {
			got, err := compileEval(st, qu, Options{Parallelism: par})
			if err != nil {
				t.Fatalf("%q parallelism %d: %v", text, par, err)
			}
			if g := renderSeq(got.Bindings, got.Vars); !reflect.DeepEqual(g, want) {
				t.Fatalf("%q: parallelism %d diverges from serial\nserial:   %v\nparallel: %v",
					text, par, want, g)
			}
		}
	}
}

// TestParallelOrderedMixedKeys pins ORDER BY over keys on which the term
// comparison is not a strict weak order: numbers compare numerically, a
// number and a string lexically, and NaN ties with every number, so
// 10 < "6" < 9 < 10 is a cycle. Such a sort's output depends on the
// algorithm, so every Parallelism must run the one serial sort to agree.
func TestParallelOrderedMixedKeys(t *testing.T) {
	forceParallel(t)
	const ns = "http://x/"
	st := newFixture()
	for i := 0; i < 400; i++ {
		var o rdf.Term
		switch i % 5 {
		case 0:
			o = rdf.NewTypedLiteral(fmt.Sprint(i%13), rdf.XSDInteger)
		case 1:
			o = rdf.NewTypedLiteral(fmt.Sprintf("%d.5", i%11), rdf.XSDDouble)
		case 2:
			o = rdf.NewLiteral(fmt.Sprint(i % 17))
		case 3:
			o = rdf.NewTypedLiteral("NaN", rdf.XSDDouble)
		default:
			o = rdf.NewIRI(fmt.Sprintf("%sv%d", ns, i%7))
		}
		st.Add(rdf.Triple{S: rdf.NewIRI(fmt.Sprintf("%se%03d", ns, i)), P: rdf.NewIRI(ns + "val"), O: o})
	}
	for _, order := range []string{"?v", "DESC(?v)", "?v ?x"} {
		text := fmt.Sprintf("SELECT ?x ?v WHERE { ?x <%sval> ?v } ORDER BY %s", ns, order)
		var want []string
		for _, par := range []int{1, 2, 4} {
			res, err := EvalOpts(st, text, Options{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			got := renderSeq(res.Bindings, res.Vars)
			if par == 1 {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Fatalf("%q: parallelism %d diverges from serial", text, par)
			}
		}
	}
}

// TestParallelPathHeadDeterminism pins the property-path head fan-out.
// Path closure enumeration is map-order nondeterministic even serially, so
// unordered queries compare as multisets; under ORDER BY the total-order
// sort (full-row tiebreak) makes the output byte-identical at every
// Parallelism setting and the comparison is exact. A LIMIT without ORDER
// BY runs on the serial pipeline at every setting, so its rows compare
// exactly too. Every other parallel run must actually take the parallel
// path (empty ParallelFallback) rather than silently running serial.
func TestParallelPathHeadDeterminism(t *testing.T) {
	forceParallel(t)
	const ns = "http://x/"
	p := func(name string) rdf.Term { return rdf.NewIRI(ns + name) }
	st := newFixture()
	// A category tree (cat0..cat9, subClassOf chains of length i%4) under
	// 240 members: the memberOf/subClassOf* frontier is large and
	// duplicate-heavy, so morsel boundaries cut through repeated pairs.
	for c := 0; c < 10; c++ {
		for d := 0; d < c%4; d++ {
			st.Add(rdf.Triple{
				S: rdf.NewIRI(fmt.Sprintf("%scat%d_%d", ns, c, d)),
				P: p("subClassOf"),
				O: rdf.NewIRI(fmt.Sprintf("%scat%d_%d", ns, c, d+1)),
			})
		}
	}
	for i := 0; i < 240; i++ {
		s := rdf.NewIRI(fmt.Sprintf("%se%03d", ns, i))
		st.Add(rdf.Triple{S: s, P: p("memberOf"), O: rdf.NewIRI(fmt.Sprintf("%scat%d_0", ns, i%10))})
		st.Add(rdf.Triple{S: s, P: p("rank"), O: rdf.NewTypedLiteral(fmt.Sprint(i%5), rdf.XSDInteger)})
	}
	for _, tc := range []struct {
		text     string
		ordered  bool   // exact sequence compare; else sorted multiset
		fallback string // the reason a parallel run must report
	}{
		{text: fmt.Sprintf("SELECT ?x ?c WHERE { ?x <%smemberOf>/<%ssubClassOf>* ?c }", ns, ns)},
		{text: fmt.Sprintf("SELECT DISTINCT ?c WHERE { ?x <%smemberOf>/<%ssubClassOf>+ ?c }", ns, ns)},
		{text: fmt.Sprintf("SELECT ?x ?c ?r WHERE { ?x <%smemberOf>/<%ssubClassOf>* ?c . ?x <%srank> ?r } ORDER BY ?r ?c", ns, ns, ns), ordered: true},
		{text: fmt.Sprintf("SELECT ?x ?c WHERE { ?x <%smemberOf>/<%ssubClassOf>* ?c } LIMIT 40", ns, ns), ordered: true, fallback: "limit without order by"},
	} {
		qu, err := Parse(tc.text)
		if err != nil {
			t.Fatal(err)
		}
		base, err := compileEval(st, qu, Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("%q serial: %v", tc.text, err)
		}
		if base.ParallelFallback != "parallelism=1" {
			t.Fatalf("%q serial fallback = %q", tc.text, base.ParallelFallback)
		}
		if len(base.Bindings) == 0 {
			t.Fatalf("%q: empty fixture result", tc.text)
		}
		want := renderSeq(base.Bindings, base.Vars)
		if !tc.ordered {
			sort.Strings(want)
		}
		for _, par := range []int{2, 4} {
			got, err := compileEval(st, qu, Options{Parallelism: par})
			if err != nil {
				t.Fatalf("%q parallelism %d: %v", tc.text, par, err)
			}
			if got.ParallelFallback != tc.fallback {
				t.Fatalf("%q parallelism %d: fallback %q, want %q", tc.text, par, got.ParallelFallback, tc.fallback)
			}
			g := renderSeq(got.Bindings, got.Vars)
			if !tc.ordered {
				sort.Strings(g)
			}
			if !reflect.DeepEqual(g, want) {
				t.Fatalf("%q: parallelism %d diverges from serial\nserial:   %v\nparallel: %v",
					tc.text, par, want, g)
			}
		}
	}
}

// TestParallelFallbackReasons pins the fallback taxonomy: every serial
// execution names why it did not parallelise, and parallel executions
// report an empty reason — on both the Eval and the streaming APIs.
func TestParallelFallbackReasons(t *testing.T) {
	const ns = "http://x/"
	st := newFixture()
	for i := 0; i < 100; i++ {
		st.Add(rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("%se%03d", ns, i)),
			P: rdf.NewIRI(ns + "rank"),
			O: rdf.NewTypedLiteral(fmt.Sprint(i%9), rdf.XSDInteger),
		})
	}
	sel := fmt.Sprintf("SELECT ?x ?r WHERE { ?x <%srank> ?r }", ns)
	pathSel := fmt.Sprintf("SELECT ?x ?r WHERE { ?x <%srank>+ ?r }", ns)

	// Default thresholds: 100 matches is below parMinMatches.
	for _, tc := range []struct {
		query string
		opts  Options
		want  string
	}{
		{sel, Options{Parallelism: 1}, "parallelism=1"},
		{sel, Options{Parallelism: -3}, "parallelism=1"},
		{sel, Options{Parallelism: 4}, "driving pattern below parallel threshold"},
		{pathSel, Options{Parallelism: 4}, "driving path frontier below parallel threshold"},
		{fmt.Sprintf("ASK { ?x <%srank> ?r }", ns), Options{Parallelism: 4}, "ask query"},
		{sel + " LIMIT 0", Options{Parallelism: 4}, "limit 0"},
	} {
		res, err := EvalOpts(st, tc.query, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.ParallelFallback != tc.want {
			t.Errorf("%q opts %+v: fallback %q, want %q", tc.query, tc.opts, res.ParallelFallback, tc.want)
		}
	}

	// Forced thresholds: the same SELECT parallelises, reason empty; the
	// streaming API reports the same facts.
	forceParallel(t)
	qu, err := Parse(sel)
	if err != nil {
		t.Fatal(err)
	}
	res, err := compileEval(st, qu, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.ParallelFallback != "" {
		t.Errorf("eligible query fell back: %q", res.ParallelFallback)
	}
	pl, err := Compile(qu)
	if err != nil {
		t.Fatal(err)
	}
	info, err := pl.StreamInfoOpts(st, Options{Parallelism: 4}, func(Solution) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if info.ParallelFallback != "" {
		t.Errorf("eligible stream fell back: %q", info.ParallelFallback)
	}
	info, err = pl.StreamInfoOpts(st, Options{Parallelism: 1}, func(Solution) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if info.ParallelFallback != "parallelism=1" {
		t.Errorf("serial stream fallback = %q", info.ParallelFallback)
	}
}

// TestParallelStreamLimit pins the streaming path: StreamInfoOpts at
// higher parallelism honours LIMIT/OFFSET and early consumer stops exactly
// like the serial stream.
func TestParallelStreamLimit(t *testing.T) {
	forceParallel(t)
	const ns = "http://x/"
	st := newFixture()
	for i := 0; i < 200; i++ {
		st.Add(rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("%se%03d", ns, i)),
			P: rdf.NewIRI(ns + "rank"),
			O: rdf.NewTypedLiteral(fmt.Sprint(i%9), rdf.XSDInteger),
		})
	}
	for _, tc := range []struct {
		text string
		want int
	}{
		{fmt.Sprintf("SELECT ?x ?r WHERE { ?x <%srank> ?r } LIMIT 17", ns), 17},
		{fmt.Sprintf("SELECT ?x ?r WHERE { ?x <%srank> ?r } OFFSET 5 LIMIT 17", ns), 17},
		{fmt.Sprintf("SELECT DISTINCT ?r WHERE { ?x <%srank> ?r } LIMIT 4", ns), 4},
		{fmt.Sprintf("SELECT ?x ?r WHERE { ?x <%srank> ?r } OFFSET 5", ns), 195},
	} {
		qu, err := Parse(tc.text)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := Compile(qu)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 2, 4} {
			n := 0
			if _, err := pl.StreamInfoOpts(st, Options{Parallelism: par}, func(Solution) bool {
				n++
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if n != tc.want {
				t.Fatalf("%q parallelism %d: streamed %d solutions, want %d", tc.text, par, n, tc.want)
			}
			// Early stop after 3 solutions.
			n = 0
			if _, err := pl.StreamInfoOpts(st, Options{Parallelism: par}, func(Solution) bool {
				n++
				return n < 3
			}); err != nil {
				t.Fatal(err)
			}
			if n != 3 {
				t.Fatalf("%q parallelism %d: early stop streamed %d, want 3", tc.text, par, n)
			}
		}
	}
}

// countingGraph wraps a graph so a test can see how many index matches
// its queries read: reads counts every ForEachIDs callback.
type countingGraph struct {
	rdf.Graph
	reads atomic.Int64
}

func (g *countingGraph) ReadIDs(fn func(rdf.IDReader)) {
	g.Graph.ReadIDs(func(r rdf.IDReader) { fn(countingReader{r, &g.reads}) })
}

type countingReader struct {
	rdf.IDReader
	reads *atomic.Int64
}

func (r countingReader) ForEachIDs(p rdf.PatternIDs, fn func(s, p, o rdf.TermID) bool) {
	r.IDReader.ForEachIDs(p, func(s, pr, o rdf.TermID) bool {
		r.reads.Add(1)
		return fn(s, pr, o)
	})
}

// TestLimitStopsScan pins that a LIMIT without ORDER BY stops the head
// scan once it has its rows, at every Parallelism, rather than reading
// the whole posting list first.
func TestLimitStopsScan(t *testing.T) {
	forceParallel(t)
	const ns = "http://x/"
	st := newFixture()
	const n = 3000
	for i := 0; i < n; i++ {
		st.Add(rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("%se%04d", ns, i)),
			P: rdf.NewIRI(ns + "rank"),
			O: rdf.NewTypedLiteral(fmt.Sprint(i%9), rdf.XSDInteger),
		})
	}
	g := &countingGraph{Graph: st}
	q := fmt.Sprintf("SELECT ?x ?r WHERE { ?x <%srank> ?r } LIMIT 5", ns)
	for _, par := range []int{1, 2, 4} {
		g.reads.Store(0)
		res, err := EvalOpts(g, q, Options{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Bindings) != 5 {
			t.Fatalf("parallelism %d: %d solutions, want 5", par, len(res.Bindings))
		}
		if r := g.reads.Load(); r > 32 {
			t.Fatalf("parallelism %d (fallback %q): read %d of %d head matches for LIMIT 5",
				par, res.ParallelFallback, r, n)
		}
	}
}
