package core

import (
	"crosse/internal/sparql"
	"crosse/internal/sqlexec"
)

// ExecOptions is the single knob set for one enriched evaluation: it
// unifies the previously parallel sqlexec.Options / sparql.Options
// plumbing, so callers configure the pipeline once and the enricher
// projects the relevant subset onto each executor. The zero value is the
// production configuration (parallel GOMAXPROCS execution, fail fast on
// down sources).
type ExecOptions struct {
	// Parallelism caps intra-query parallelism for both the SQL and the
	// SPARQL executor: 0 (the default) means GOMAXPROCS, 1 forces the
	// serial paths, larger values bound each query's worker fan-out.
	Parallelism int

	// PartialResults degrades instead of failing when a remote source is
	// down before producing any row (an open FDW circuit): the source is
	// skipped and named in Stats.SkippedSources / Result.SkippedSources.
	PartialResults bool
}

// SQL projects the options onto the relational executor.
func (o ExecOptions) SQL() sqlexec.Options {
	return sqlexec.Options{Parallelism: o.Parallelism, PartialResults: o.PartialResults}
}

// SPARQL projects the options onto the ontology executor.
func (o ExecOptions) SPARQL() sparql.Options {
	return sparql.Options{Parallelism: o.Parallelism}
}
