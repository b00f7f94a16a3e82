// Package preview implements the content-preview and context-aware
// presentation services of the paper's vision (Sec. I-B.c): when a query
// returns a long result list, the system should provide (a) context-aware
// ranking, (b) snippet extraction, and (c) key-concept highlighting, all
// driven by the user's personal knowledge base.
package preview

import (
	"sort"

	"crosse/internal/core"
	"crosse/internal/rdf"
	"crosse/internal/sqlexec"
	"crosse/internal/sqlval"
)

// CellHighlight marks one result cell as a concept the user has knowledge
// about.
type CellHighlight struct {
	Row, Col int
	// Facts is how many KB statements mention the concept (as subject or
	// object) — the "how much do I know about this" signal.
	Facts int
}

// RankedResult is a query result re-ordered by contextual relevance.
type RankedResult struct {
	Result *sqlexec.Result
	// Scores holds the per-row relevance, parallel to Result.Rows.
	Scores []float64
	// Highlights are the key concepts found in the (re-ordered) rows.
	Highlights []CellHighlight
}

// conceptFacts counts the KB statements mentioning each term the row's
// values map to. A small memo keeps repeated values cheap.
type scorer struct {
	view    rdf.Graph
	mapping *core.Mapping
	memo    map[sqlval.Value]int
}

func newScorer(view rdf.Graph, mapping *core.Mapping) *scorer {
	if mapping == nil {
		mapping = core.NewMapping("")
	}
	return &scorer{view: view, mapping: mapping, memo: map[sqlval.Value]int{}}
}

// facts returns the number of KB triples that mention the value (mapped to
// its ontology term) as subject or object.
func (s *scorer) facts(v sqlval.Value) int {
	if v.IsNull() {
		return 0
	}
	if n, ok := s.memo[v]; ok {
		return n
	}
	// Probe both renderings: the minted IRI and the bare literal.
	n := 0
	term := s.mapping.ToTerm("", "", v)
	n += rdf.Count(s.view, rdf.Pattern{S: term})
	n += rdf.Count(s.view, rdf.Pattern{O: term})
	lit := rdf.NewLiteral(v.String())
	n += rdf.Count(s.view, rdf.Pattern{O: lit})
	s.memo[v] = n
	return n
}

// Rank orders the result rows by how much the user's knowledge base says
// about the values they contain (ties keep the original order, so ranking
// is stable), and highlights every cell holding a known concept. The input
// result is not modified.
func Rank(res *sqlexec.Result, view rdf.Graph, mapping *core.Mapping) *RankedResult {
	sc := newScorer(view, mapping)

	type rowScore struct {
		row   []sqlval.Value
		score float64
	}
	scored := make([]rowScore, len(res.Rows))
	for i, row := range res.Rows {
		total := 0
		for _, v := range row {
			total += sc.facts(v)
		}
		scored[i] = rowScore{row: row, score: float64(total)}
	}
	sort.SliceStable(scored, func(i, j int) bool { return scored[i].score > scored[j].score })

	out := &RankedResult{
		Result: &sqlexec.Result{Columns: res.Columns, Rows: make([][]sqlval.Value, len(scored))},
		Scores: make([]float64, len(scored)),
	}
	for i, rs := range scored {
		out.Result.Rows[i] = rs.row
		out.Scores[i] = rs.score
		for c, v := range rs.row {
			if n := sc.facts(v); n > 0 {
				out.Highlights = append(out.Highlights, CellHighlight{Row: i, Col: c, Facts: n})
			}
		}
	}
	return out
}

// Fact is one KB statement about a concept, in snippet form.
type Fact struct {
	Property string
	Value    string
	// Outgoing is true for (concept, property, value), false for
	// (value, property, concept).
	Outgoing bool
}

// Snippet extracts what the user's KB says about a concept — the preview
// shown next to a search result so the user can judge relevance without
// opening it. Facts are returned deterministically (outgoing first, then
// property/value order), capped at maxFacts (0 = no cap).
func Snippet(view rdf.Graph, mapping *core.Mapping, concept string, maxFacts int) []Fact {
	if mapping == nil {
		mapping = core.NewMapping("")
	}
	var facts []Fact
	for _, term := range mapping.ConceptTerms(concept) {
		rdf.ForEach(view, rdf.Pattern{S: term}, func(t rdf.Triple) bool {
			facts = append(facts, Fact{
				Property: mapping.FromTerm(t.P).String(),
				Value:    mapping.FromTerm(t.O).String(),
				Outgoing: true,
			})
			return true
		})
	}
	for _, term := range mapping.ConceptTerms(concept) {
		rdf.ForEach(view, rdf.Pattern{O: term}, func(t rdf.Triple) bool {
			facts = append(facts, Fact{
				Property: mapping.FromTerm(t.P).String(),
				Value:    mapping.FromTerm(t.S).String(),
				Outgoing: false,
			})
			return true
		})
	}
	sort.Slice(facts, func(i, j int) bool {
		if facts[i].Outgoing != facts[j].Outgoing {
			return facts[i].Outgoing
		}
		if facts[i].Property != facts[j].Property {
			return facts[i].Property < facts[j].Property
		}
		return facts[i].Value < facts[j].Value
	})
	if maxFacts > 0 && len(facts) > maxFacts {
		facts = facts[:maxFacts]
	}
	return facts
}

// KnownConcepts filters a list of candidate values down to those the KB
// has at least minFacts statements about — the "context-aware knowledge
// extension" hook: the UI offers these for further exploration.
func KnownConcepts(view rdf.Graph, mapping *core.Mapping, values []sqlval.Value, minFacts int) []sqlval.Value {
	sc := newScorer(view, mapping)
	if minFacts < 1 {
		minFacts = 1
	}
	var out []sqlval.Value
	for _, v := range values {
		if sc.facts(v) >= minFacts {
			out = append(out, v)
		}
	}
	return out
}
