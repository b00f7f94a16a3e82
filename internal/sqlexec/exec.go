package sqlexec

import (
	"fmt"

	"crosse/internal/sqldb"
	"crosse/internal/sqlparser"
	"crosse/internal/sqlval"
)

// Result is the outcome of executing a statement: a result table for
// SELECT, and an affected-rows count for DML/DDL.
type Result struct {
	Columns  []string
	Rows     [][]sqlval.Value
	Affected int
	// SkippedSources names sources that were down and skipped under
	// Options.PartialResults (empty on complete results).
	SkippedSources []string
}

// Exec parses and executes one SQL statement against db.
func Exec(db *sqldb.Database, src string) (*Result, error) {
	return ExecOpts(db, src, Options{})
}

// ExecOpts parses and executes one SQL statement with execution options.
func ExecOpts(db *sqldb.Database, src string, opts Options) (*Result, error) {
	st, err := sqlparser.Parse(src)
	if err != nil {
		return nil, err
	}
	return ExecStatementOpts(db, st, opts)
}

// ExecStatementOpts executes a parsed statement with execution options.
// A failed INSERT, UPDATE or DELETE still returns a result, whose Affected
// counts the rows it changed before the error.
func ExecStatementOpts(db *sqldb.Database, st sqlparser.Statement, opts Options) (*Result, error) {
	switch s := st.(type) {
	case *sqlparser.Select:
		return EvalSelectOpts(db, s, opts)
	case *sqlparser.CreateTable:
		return execCreateTable(db, s)
	case *sqlparser.DropTable:
		if err := db.DropTable(s.Name, s.IfExists); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sqlparser.CreateIndex:
		t, err := db.Table(s.Table)
		if err != nil {
			return nil, err
		}
		if err := t.CreateIndex(s.Column); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sqlparser.Insert:
		return execInsert(db, s, opts)
	case *sqlparser.Update:
		return execUpdate(db, s)
	case *sqlparser.Delete:
		return execDelete(db, s)
	default:
		return nil, fmt.Errorf("sqlexec: unsupported statement %T", st)
	}
}

// EvalSelectOpts runs a SELECT against the database with execution
// options and returns the result. It compiles the statement into a
// physical plan and executes it; callers evaluating the same SELECT
// repeatedly should Compile once (or use internal/core's plan cache) and
// Run the plan per evaluation.
func EvalSelectOpts(db *sqldb.Database, sel *sqlparser.Select, opts Options) (*Result, error) {
	p, err := CompileOpts(db, sel, opts)
	if err != nil {
		return nil, err
	}
	return p.Run()
}

func execCreateTable(db *sqldb.Database, s *sqlparser.CreateTable) (*Result, error) {
	schema := make(sqldb.Schema, len(s.Columns))
	for i, c := range s.Columns {
		schema[i] = sqldb.Column{Name: c.Name, Type: c.Type, NotNull: c.NotNull, PrimaryKey: c.PrimaryKey}
	}
	if _, err := db.CreateTable(s.Name, schema, s.IfNotExists); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

func execInsert(db *sqldb.Database, s *sqlparser.Insert, opts Options) (*Result, error) {
	t, err := db.Table(s.Table)
	if err != nil {
		return nil, err
	}
	schema := t.Schema()

	// Map statement columns to schema positions.
	positions := make([]int, 0, len(schema))
	if len(s.Columns) == 0 {
		for i := range schema {
			positions = append(positions, i)
		}
	} else {
		for _, name := range s.Columns {
			ci := schema.ColIndex(name)
			if ci < 0 {
				return nil, fmt.Errorf("sqlexec: table %s has no column %q", s.Table, name)
			}
			positions = append(positions, ci)
		}
	}

	// INSERT ... SELECT: evaluate the query and insert its rows.
	if s.Query != nil {
		res, err := EvalSelectOpts(db, s.Query, opts)
		if err != nil {
			return nil, err
		}
		n := 0
		for _, srcRow := range res.Rows {
			if len(srcRow) != len(positions) {
				return nil, fmt.Errorf("sqlexec: INSERT SELECT produces %d columns, want %d", len(srcRow), len(positions))
			}
			row := make([]sqlval.Value, len(schema))
			for i, v := range srcRow {
				row[positions[i]] = v
			}
			if err := t.Insert(row); err != nil {
				return &Result{Affected: n}, err
			}
			n++
		}
		return &Result{Affected: n}, nil
	}

	// Row k evaluates, then inserts, before row k+1 evaluates: an error
	// leaves the rows before it inserted.
	n := 0
	for _, exprRow := range s.Rows {
		if len(exprRow) != len(positions) {
			return &Result{Affected: n}, fmt.Errorf("sqlexec: INSERT row has %d values, want %d", len(exprRow), len(positions))
		}
		row := make([]sqlval.Value, len(schema))
		for i, e := range exprRow {
			v, err := constValue(e)
			if err != nil {
				return &Result{Affected: n}, err
			}
			row[positions[i]] = v
		}
		if err := t.Insert(row); err != nil {
			return &Result{Affected: n}, err
		}
		n++
	}
	return &Result{Affected: n}, nil
}

// constValue evaluates an expression that references no column. A literal,
// the whole of an engine dump's INSERTs, is taken as is; anything else
// compiles against an empty layout, as UPDATE … SET compiles against the
// table's.
func constValue(e sqlparser.Expr) (sqlval.Value, error) {
	if lit, ok := e.(*sqlparser.Literal); ok {
		return lit.Val, nil
	}
	ce, err := CompileExpr(nil, e)
	if err != nil {
		return sqlval.Null, err
	}
	return ce.Eval(nil)
}

// tableLayout is the column layout UPDATE/DELETE predicates compile
// against: the table's columns qualified by its name.
func tableLayout(t *sqldb.Table) []ScopeCol {
	cols := make([]ScopeCol, len(t.Schema()))
	for i, c := range t.Schema() {
		cols[i] = ScopeCol{Qualifier: t.Name(), Name: c.Name}
	}
	return cols
}

// tablePredicate compiles a WHERE clause once; the returned function
// evaluates it per row without walking the AST.
func tablePredicate(t *sqldb.Table, where sqlparser.Expr) (func(row []sqlval.Value) (bool, error), error) {
	if where == nil {
		return func([]sqlval.Value) (bool, error) { return true, nil }, nil
	}
	pred, err := CompilePredicate(tableLayout(t), where)
	if err != nil {
		return nil, err
	}
	return func(row []sqlval.Value) (bool, error) {
		tr, err := pred.EvalBool(row)
		if err != nil {
			return false, err
		}
		return tr == sqlval.True, nil
	}, nil
}

func execUpdate(db *sqldb.Database, s *sqlparser.Update) (*Result, error) {
	t, err := db.Table(s.Table)
	if err != nil {
		return nil, err
	}
	schema := t.Schema()
	layout := tableLayout(t)
	// Pre-resolve SET targets and compile their value expressions.
	targets := make([]int, len(s.Set))
	values := make([]*CompiledExpr, len(s.Set))
	for i, a := range s.Set {
		ci := schema.ColIndex(a.Column)
		if ci < 0 {
			return nil, fmt.Errorf("sqlexec: table %s has no column %q", s.Table, a.Column)
		}
		targets[i] = ci
		if values[i], err = CompileExpr(layout, a.Value); err != nil {
			return nil, err
		}
	}
	pred, err := tablePredicate(t, s.Where)
	if err != nil {
		return nil, err
	}
	n, err := t.UpdateWhere(pred, func(row []sqlval.Value) ([]sqlval.Value, error) {
		out := make([]sqlval.Value, len(row))
		copy(out, row)
		for i := range s.Set {
			v, err := values[i].Eval(row)
			if err != nil {
				return nil, err
			}
			out[targets[i]] = v
		}
		return out, nil
	})
	if err != nil {
		return &Result{Affected: n}, err
	}
	return &Result{Affected: n}, nil
}

func execDelete(db *sqldb.Database, s *sqlparser.Delete) (*Result, error) {
	t, err := db.Table(s.Table)
	if err != nil {
		return nil, err
	}
	pred, err := tablePredicate(t, s.Where)
	if err != nil {
		return nil, err
	}
	n, err := t.DeleteWhere(pred)
	return &Result{Affected: n}, err
}
