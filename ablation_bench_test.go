// Ablation benchmarks for the two planner fast paths.
// Run with: go test -bench=Ablation -benchmem .
package crosse

import (
	"fmt"
	"testing"

	"crosse/internal/dataset"
	"crosse/internal/engine"
	"crosse/internal/rdf"
	"crosse/internal/sparql"
	"crosse/internal/sqlexec"
)

// BenchmarkAblationHashJoin shows what the equi-join hash fast path buys:
// the paper's Example 4.6 self-join shape becomes quadratic without it.
func BenchmarkAblationHashJoin(b *testing.B) {
	db := engine.Open()
	cfg := dataset.DefaultConfig()
	cfg.Landfills = 100 // ~1k rows; nested loop = ~1M probes
	if err := dataset.Populate(db, cfg); err != nil {
		b.Fatal(err)
	}
	const q = `SELECT COUNT(*) FROM elem_contained e1, elem_contained e2
WHERE e1.elem_name = e2.elem_name`

	for _, disabled := range []bool{false, true} {
		name := "HashJoin"
		if disabled {
			name = "NestedLoop"
		}
		b.Run(name, func(b *testing.B) {
			opts := sqlexec.Options{DisableHashJoin: disabled}
			for i := 0; i < b.N; i++ {
				if _, err := db.QueryOpts(q, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBGPOrder shows what greedy selectivity-first BGP join
// ordering buys: a query written unselective-pattern-first is rescued by
// the reordering and pathological without it.
func BenchmarkAblationBGPOrder(b *testing.B) {
	const ns = "http://smartground.eu/onto#"
	st := rdf.NewSharedStore()
	for i := 0; i < 20000; i++ {
		s := rdf.NewIRI(fmt.Sprintf("%se%d", ns, i))
		st.AcquireTriple(rdf.Triple{S: s, P: rdf.NewIRI(ns + "common"), O: rdf.NewIRI(ns + "thing")})
		if i == 7 {
			st.AcquireTriple(rdf.Triple{S: s, P: rdf.NewIRI(ns + "rare"), O: rdf.NewIRI(ns + "needle")})
		}
	}
	// Written worst-first: the unselective pattern appears first.
	const q = `SELECT ?x WHERE { ?x <` + ns + `common> <` + ns + `thing> . ?x <` + ns + `rare> <` + ns + `needle> }`

	for _, disabled := range []bool{false, true} {
		name := "GreedyOrder"
		if disabled {
			name = "SourceOrder"
		}
		b.Run(name, func(b *testing.B) {
			opts := sparql.Options{DisableReorder: disabled}
			for i := 0; i < b.N; i++ {
				if _, err := sparql.EvalOpts(st, q, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
