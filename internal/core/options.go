package core

import (
	"crosse/internal/sparql"
	"crosse/internal/sqlexec"
)

// ExecOptions is the single knob set for one enriched evaluation: callers
// configure the pipeline once and the enricher projects the relevant
// subset onto each executor. The zero value is the production
// configuration (SPARQL on GOMAXPROCS workers, fail fast on down
// sources).
type ExecOptions struct {
	// Parallelism caps the SPARQL executor's intra-query parallelism: 0
	// (the default) means GOMAXPROCS, 1 forces its serial path, larger
	// values bound each query's worker fan-out. The SQL executor runs
	// every plan serially and ignores it.
	Parallelism int

	// PartialResults degrades instead of failing when a remote source is
	// down before producing any row (an open FDW circuit): the source is
	// skipped and named in Stats.SkippedSources / Result.SkippedSources.
	PartialResults bool
}

// SQL projects the options onto the relational executor.
func (o ExecOptions) SQL() sqlexec.Options {
	return sqlexec.Options{PartialResults: o.PartialResults}
}

// SPARQL projects the options onto the ontology executor.
func (o ExecOptions) SPARQL() sparql.Options {
	return sparql.Options{Parallelism: o.Parallelism}
}
