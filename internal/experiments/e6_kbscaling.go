package experiments

import (
	"io"

	"crosse/internal/core"
)

// RunE6 scales the user's knowledge base (padding it with unrelated facts)
// while holding the databank fixed, and measures SESQL latency. Expected
// shape: thanks to POS indexing, the SPARQL stage depends on the matching
// triples, not the total KB size, so latency should stay near-flat while
// the KB grows by orders of magnitude — the property that makes
// crowdsourced (ever-growing) KBs viable.
func RunE6(w io.Writer, quick bool) error {
	header(w, "E6", "Scaling with knowledge-base size")
	kbSizes := []int{0, 1000, 10000, 100000}
	if quick {
		kbSizes = []int{0, 1000, 5000}
	}
	landfills := 200
	if quick {
		landfills = 60
	}
	reps := 5
	if quick {
		reps = 3
	}

	const query = `SELECT elem_name, landfill_name FROM elem_contained
ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)
BOOLSCHEMAEXTENSION(elem_name, isA, HazardousWaste)`

	tab := newTable("KB triples", "SESQL latency", "SPARQL stage", "join stage", "rows")
	for _, extra := range kbSizes {
		enr, err := scaledFixture(landfills, extra)
		if err != nil {
			return err
		}
		var stats *core.Stats
		med, err := medianOf(reps, func() error {
			enr.SetQueryCache(core.NewQueryCache(0)) // measure the extraction, not memo hits
			_, s, err := enr.QueryStats("alice", query)
			stats = s
			return err
		})
		if err != nil {
			return err
		}
		tab.add(enr.Platform.ViewSize("alice"), med, stats.SPARQL, stats.Join, stats.FinalRows)
	}
	tab.write(w)
	return nil
}
