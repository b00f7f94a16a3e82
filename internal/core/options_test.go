package core

import (
	"testing"

	"crosse/internal/sparql"
	"crosse/internal/sqlexec"
)

func TestExecOptionsRoundTrip(t *testing.T) {
	o := ExecOptions{Parallelism: 3, PartialResults: true}
	wantSQL := sqlexec.Options{PartialResults: true}
	if got := o.SQL(); got != wantSQL {
		t.Errorf("SQL() = %+v, want %+v", got, wantSQL)
	}
	wantSPARQL := sparql.Options{Parallelism: 3}
	if got := o.SPARQL(); got != wantSPARQL {
		t.Errorf("SPARQL() = %+v, want %+v", got, wantSPARQL)
	}
}

func TestEnricherSetExecOptions(t *testing.T) {
	e := &Enricher{}
	want := ExecOptions{Parallelism: 4, PartialResults: true}
	e.SetExecOptions(want)
	if got := e.ExecOptions(); got != want {
		t.Errorf("ExecOptions() = %+v, want %+v", got, want)
	}
	e.SetExecOptions(ExecOptions{Parallelism: 1})
	if got := e.ExecOptions(); got != (ExecOptions{Parallelism: 1}) {
		t.Errorf("SetExecOptions not applied: %+v", got)
	}
}
