package sqldb

// remote.go — the seams the executor uses to talk to relations whose rows
// live on another node (internal/fdw foreign tables). The storage layer
// defines them so sqlexec can depend on the contract without importing the
// network stack.

import (
	"context"
	"errors"

	"crosse/internal/sqlval"
)

// ErrSourceDown marks a scan failure where the backing source is known to
// be unavailable before any row was produced — typically a remote peer
// whose circuit breaker is open. The executor can fail such queries fast,
// or (under sqlexec.Options.PartialResults) skip the source and report it
// in the result instead of failing the whole query. internal/fdw aliases
// this as fdw.ErrSourceDown.
var ErrSourceDown = errors.New("source unavailable")

// SourceNamer is implemented by errors that identify which source failed;
// the executor uses it to name skipped sources in partial results.
type SourceNamer interface {
	SourceName() string
}

// SourceOf extracts the failing source's name from an error chain, falling
// back to fallback when no SourceNamer is present.
func SourceOf(err error, fallback string) string {
	var sn SourceNamer
	if errors.As(err, &sn) {
		return sn.SourceName()
	}
	return fallback
}

// ContextRelation is an optional Relation extension for sources whose
// scans can honour a deadline or cancellation — remote relations must
// implement it so a stalled peer cannot hang a query past its deadline.
// Local in-memory tables do not need it (their scans never block).
type ContextRelation interface {
	Relation
	// ScanContext behaves like Scan bounded by ctx: when ctx is done the
	// scan returns promptly with an error wrapping ctx.Err() or a
	// transport deadline error.
	ScanContext(ctx context.Context, fn func(row []sqlval.Value) bool) error
}

// ContextFilteredRelation is the context-aware counterpart of
// FilteredRelation.
type ContextFilteredRelation interface {
	FilteredRelation
	ScanEqContext(ctx context.Context, col string, v sqlval.Value, fn func(row []sqlval.Value) bool) error
}

// Comparison is one `Col Op Val` condition of a pre-filtered scan. Op is
// one of = <> < <= > >=, and Val is never NULL.
type Comparison struct {
	Col string
	Op  string
	Val sqlval.Value
}

// PrefilterRelation is an optional Relation extension for sources that can
// drop rows before they travel (FDW foreign tables). ScanWhere scans the
// rows where eqCol = eqVal (every row when eqCol is empty) and may skip a
// row only when the comparisons in where, evaluated in order under SQL's
// three-valued logic, reach one that is not True before any whose Compare
// fails. It is only a pre-filter: a source may return rows that fail it,
// so the caller keeps evaluating every condition itself. A nil ctx adds
// no caller deadline.
type PrefilterRelation interface {
	Relation
	ScanWhere(ctx context.Context, eqCol string, eqVal sqlval.Value, where []Comparison, fn func(row []sqlval.Value) bool) error
}
