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
		base, err := EvalQueryOpts(st, qu, Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("%q serial: %v", text, err)
		}
		want := renderSeq(base.Bindings, base.Vars)
		for _, par := range []int{2, 4} {
			got, err := EvalQueryOpts(st, qu, Options{Parallelism: par})
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

// TestParallelPathHeadDeterminism pins the property-path head fan-out.
// Path closure enumeration is map-order nondeterministic even serially, so
// unordered queries compare as multisets; under ORDER BY the total-order
// sort (full-row tiebreak) makes the output byte-identical at every
// Parallelism setting and the comparison is exact. Each parallel run must
// actually take the parallel path (empty ParallelFallback) rather than
// silently running serial.
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
		text    string
		ordered bool // exact sequence compare; else sorted multiset
		count   int  // when > 0, compare size only (LIMIT over unordered)
	}{
		{text: fmt.Sprintf("SELECT ?x ?c WHERE { ?x <%smemberOf>/<%ssubClassOf>* ?c }", ns, ns)},
		{text: fmt.Sprintf("SELECT DISTINCT ?c WHERE { ?x <%smemberOf>/<%ssubClassOf>+ ?c }", ns, ns)},
		{text: fmt.Sprintf("SELECT ?x ?c ?r WHERE { ?x <%smemberOf>/<%ssubClassOf>* ?c . ?x <%srank> ?r } ORDER BY ?r ?c", ns, ns, ns), ordered: true},
		{text: fmt.Sprintf("SELECT ?x ?c WHERE { ?x <%smemberOf>/<%ssubClassOf>* ?c } LIMIT 40", ns, ns), count: 40},
	} {
		qu, err := Parse(tc.text)
		if err != nil {
			t.Fatal(err)
		}
		base, err := EvalQueryOpts(st, qu, Options{Parallelism: 1})
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
			got, err := EvalQueryOpts(st, qu, Options{Parallelism: par})
			if err != nil {
				t.Fatalf("%q parallelism %d: %v", tc.text, par, err)
			}
			if got.ParallelFallback != "" {
				t.Fatalf("%q parallelism %d fell back: %q", tc.text, par, got.ParallelFallback)
			}
			if tc.count > 0 {
				if len(got.Bindings) != tc.count {
					t.Fatalf("%q parallelism %d: %d solutions, want %d", tc.text, par, len(got.Bindings), tc.count)
				}
				continue
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
	res, err := EvalQueryOpts(st, qu, Options{Parallelism: 4})
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

// TestParallelStreamLimit pins the streaming path: StreamOpts at higher
// parallelism honours LIMIT/OFFSET and early consumer stops exactly like
// the serial stream.
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
	for _, text := range []string{
		fmt.Sprintf("SELECT ?x ?r WHERE { ?x <%srank> ?r } LIMIT 17", ns),
		fmt.Sprintf("SELECT ?x ?r WHERE { ?x <%srank> ?r } OFFSET 5 LIMIT 17", ns),
		fmt.Sprintf("SELECT DISTINCT ?r WHERE { ?x <%srank> ?r } LIMIT 4", ns),
	} {
		qu, err := Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := Compile(qu)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 2, 4} {
			n := 0
			if err := pl.StreamOpts(st, Options{Parallelism: par}, func(Solution) bool {
				n++
				return true
			}); err != nil {
				t.Fatal(err)
			}
			want := qu.Limit
			if want > 200 {
				want = 200
			}
			if n != want {
				t.Fatalf("%q parallelism %d: streamed %d solutions, want %d", text, par, n, want)
			}
			// Early stop after 3 solutions.
			n = 0
			if err := pl.StreamOpts(st, Options{Parallelism: par}, func(Solution) bool {
				n++
				return n < 3
			}); err != nil {
				t.Fatal(err)
			}
			if n != 3 {
				t.Fatalf("%q parallelism %d: early stop streamed %d, want 3", text, par, n)
			}
		}
	}
}
