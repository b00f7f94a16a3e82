package experiments

import (
	"fmt"
	"io"

	"crosse/internal/core"
)

// RunE4 breaks SESQL latency down into the Fig. 6 stages — SQP parse, base
// SQL on the main platform, SPARQL on the user KB, JoinManager, final
// stage — for each of the six enrichment strategies.
// Expected shape: parse ≪ everything else; the join and base-SQL stages
// dominate; WHERE-rewriting strategies pay extra join time proportional to
// candidate-set size.
func RunE4(w io.Writer, quick bool) error {
	header(w, "E4", "Pipeline stage breakdown (Fig. 6)")
	landfills := 400
	if quick {
		landfills = 80
	}
	enr, err := scaledFixture(landfills, 0)
	if err != nil {
		return err
	}

	tab := newTable("strategy", "parse", "base SQL", "SPARQL", "join", "final SQL", "total", "rows")
	for _, q := range scaledEnrichmentQueries() {
		var stats *core.Stats
		med, err := medianOf(3, func() error {
			// Cold, so every repetition runs each stage, the SPARQL one
			// included (a warm cache serves the extract from its memo).
			enr.SetQueryCache(core.NewQueryCache(0))
			_, s, err := enr.QueryStats("alice", q.Query)
			stats = s
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", q.Name, err)
		}
		_ = med
		tab.add(q.Name, stats.Parse, stats.BaseSQL, stats.SPARQL, stats.Join, stats.FinalSQL,
			stats.Total(), stats.FinalRows)
	}
	tab.write(w)
	fmt.Fprintln(w, "\n(parse is the SQP; SPARQL runs on the user's KB view; join is the")
	fmt.Fprintln(w, " JoinManager incl. the projection of visible columns; final SQL is Fig. 6's")
	fmt.Fprintln(w, " last step, here an in-place sort and slice of the joined rows)")
	return nil
}
