// Package engine is the embedded-database facade over the relational
// substrate: it owns a catalog and executes SQL text. In the paper's
// architecture this is the "main platform" database that SESQL's cleaned
// SQL queries run against.
package engine

import (
	"fmt"
	"strings"

	"crosse/internal/sqldb"
	"crosse/internal/sqlexec"
	"crosse/internal/sqlval"
)

// DB is an embedded relational database.
type DB struct {
	cat *sqldb.Database
}

// Open returns a new empty database.
func Open() *DB {
	return &DB{cat: sqldb.NewDatabase()}
}

// Catalog exposes the underlying catalog (used by the FDW layer and tests).
func (d *DB) Catalog() *sqldb.Database { return d.cat }

// Exec executes one SQL statement and returns its result. SELECTs compile
// to a streaming physical plan (see internal/sqlexec) before running.
func (d *DB) Exec(sql string) (*sqlexec.Result, error) {
	return sqlexec.Exec(d.cat, sql)
}

// ExecOpts executes one SQL statement with execution options (the
// partial-results policy).
func (d *DB) ExecOpts(sql string, opts sqlexec.Options) (*sqlexec.Result, error) {
	return sqlexec.ExecOpts(d.cat, sql, opts)
}

// QueryOpts executes a row-producing statement with execution options.
func (d *DB) QueryOpts(sql string, opts sqlexec.Options) (*sqlexec.Result, error) {
	r, err := d.ExecOpts(sql, opts)
	if err != nil {
		return nil, err
	}
	if r.Columns == nil {
		return nil, fmt.Errorf("engine: statement returned no result set")
	}
	return r, nil
}

// ExecScript executes a semicolon-separated sequence of statements,
// returning the result of the last one. Statements inside string literals
// are split correctly.
func (d *DB) ExecScript(script string) (*sqlexec.Result, error) {
	last := &sqlexec.Result{}
	for _, stmt := range SplitStatements(script) {
		r, err := d.ExecStatement(stmt)
		if err != nil {
			return nil, err
		}
		last = r
	}
	return last, nil
}

// ExecStatement executes one statement of a script (see SplitStatements);
// its error names the statement. A failed INSERT, UPDATE or DELETE still
// returns a result counting the rows it changed before the error.
func (d *DB) ExecStatement(stmt string) (*sqlexec.Result, error) {
	r, err := d.Exec(stmt)
	if err != nil {
		return r, fmt.Errorf("engine: in %q: %w", abbreviate(stmt), err)
	}
	return r, nil
}

func abbreviate(s string) string {
	s = strings.Join(strings.Fields(s), " ")
	if len(s) > 60 {
		return s[:57] + "..."
	}
	return s
}

// Query executes a statement that must produce rows.
func (d *DB) Query(sql string) (*sqlexec.Result, error) {
	return d.QueryOpts(sql, sqlexec.Options{})
}

// RegisterForeign exposes an external relation in this database's
// namespace (the postgres_fdw integration point of the paper).
func (d *DB) RegisterForeign(r sqldb.Relation) error {
	return d.cat.RegisterForeign(r)
}

// SplitStatements splits a script on semicolons that are outside string
// literals and comments.
func SplitStatements(script string) []string {
	var out []string
	var b strings.Builder
	inStr := false
	for i := 0; i < len(script); i++ {
		c := script[i]
		switch {
		case inStr:
			b.WriteByte(c)
			if c == '\'' {
				if i+1 < len(script) && script[i+1] == '\'' {
					b.WriteByte('\'')
					i++
				} else {
					inStr = false
				}
			}
		case c == '\'':
			inStr = true
			b.WriteByte(c)
		case c == '-' && i+1 < len(script) && script[i+1] == '-':
			for i < len(script) && script[i] != '\n' {
				i++
			}
			b.WriteByte('\n')
		case c == ';':
			out = appendStmt(out, b.String())
			b.Reset()
		default:
			b.WriteByte(c)
		}
	}
	return appendStmt(out, b.String())
}

func appendStmt(out []string, s string) []string {
	s = strings.TrimSpace(s)
	if s != "" {
		out = append(out, s)
	}
	return out
}

// FormatTable renders a result as an aligned text table (the sesql CLI
// and the examples use this).
func FormatTable(r *sqlexec.Result) string {
	if len(r.Columns) == 0 {
		return fmt.Sprintf("(%d row(s) affected)\n", r.Affected)
	}
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	writeRow := func(vals []string) {
		for i, v := range vals {
			if i > 0 {
				b.WriteString(" | ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], v)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("-+-")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range cells {
		writeRow(row)
	}
	fmt.Fprintf(&b, "(%d rows)\n", len(r.Rows))
	return b.String()
}

// Row is a convenience builder for programmatic inserts.
func Row(vals ...any) ([]sqlval.Value, error) {
	out := make([]sqlval.Value, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case nil:
			out[i] = sqlval.Null
		case int:
			out[i] = sqlval.NewInt(int64(x))
		case int64:
			out[i] = sqlval.NewInt(x)
		case float64:
			out[i] = sqlval.NewFloat(x)
		case string:
			out[i] = sqlval.NewString(x)
		case bool:
			out[i] = sqlval.NewBool(x)
		case sqlval.Value:
			out[i] = x
		default:
			return nil, fmt.Errorf("engine: unsupported Go value %T", v)
		}
	}
	return out, nil
}
