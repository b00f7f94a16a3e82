package oracle

// sql.go — the materialising SQL interpreter: FROM with nested-loop joins
// and WHERE conjuncts applied at the earliest join prefix that resolves
// them, projection or grouping, ORDER BY, DISTINCT, LIMIT and OFFSET.

import (
	"fmt"
	"sort"
	"strings"

	"crosse/internal/sqldb"
	"crosse/internal/sqlparser"
	"crosse/internal/sqlval"
)

// Answer is a SQL query's result: the column headers and the rows.
type Answer struct {
	Columns []string
	Rows    [][]sqlval.Value
}

// column names one column of a rowset: its source qualifier (table name
// or alias) and its name.
type column struct {
	qual, name string
}

// rowset is a materialised intermediate relation.
type rowset struct {
	cols []column
	rows [][]sqlval.Value
}

func (rs *rowset) scope(row []sqlval.Value) *scope {
	return &scope{cols: rs.cols, row: row}
}

// find returns the positions a (qual, name) reference matches.
func (rs *rowset) find(qual, name string) []int {
	var out []int
	for i, c := range rs.cols {
		if strings.EqualFold(c.name, name) && (qual == "" || strings.EqualFold(c.qual, qual)) {
			out = append(out, i)
		}
	}
	return out
}

// SQL evaluates a SELECT over db.
func SQL(db *sqldb.Database, sel *sqlparser.Select) (*Answer, error) {
	if len(sel.From) == 0 {
		return selectNoFrom(sel)
	}
	base, err := buildFrom(db, sel)
	if err != nil {
		return nil, err
	}

	var out *rowset
	var headers []string
	var underlying []*scope // per output row, for ORDER BY's fallback
	if len(sel.GroupBy) > 0 || sel.Having != nil || anyAggregate(sel) {
		out, headers, underlying, err = selectGrouped(sel, base)
	} else {
		out, headers, underlying, err = selectPlain(sel, base)
	}
	if err != nil {
		return nil, err
	}

	// ORDER BY keys are computed before DISTINCT so they stay aligned with
	// their rows. A key resolves against the projected aliases first; if
	// that fails for a row, against the row's underlying columns.
	var keys [][]sqlval.Value
	if len(sel.OrderBy) > 0 {
		keys = make([][]sqlval.Value, len(out.rows))
		for i, r := range out.rows {
			ks := make([]sqlval.Value, len(sel.OrderBy))
			for k, ob := range sel.OrderBy {
				v, err := eval(ob.Expr, out.scope(r))
				if err != nil {
					if v, err = eval(ob.Expr, underlying[i]); err != nil {
						return nil, fmt.Errorf("oracle: ORDER BY: %w", err)
					}
				}
				ks[k] = v
			}
			keys[i] = ks
		}
	}
	if sel.Distinct {
		out.rows, keys = distinctRows(out.rows, keys)
	}
	if len(sel.OrderBy) > 0 {
		orderRows(sel.OrderBy, out.rows, keys)
	}
	rows, err := window(sel, out.rows)
	if err != nil {
		return nil, err
	}
	return &Answer{Columns: headers, Rows: rows}, nil
}

func selectNoFrom(sel *sqlparser.Select) (*Answer, error) {
	ans := &Answer{Rows: [][]sqlval.Value{nil}}
	for i, it := range sel.Items {
		if it.Star {
			return nil, fmt.Errorf("oracle: SELECT * without FROM")
		}
		v, err := eval(it.Expr, &scope{})
		if err != nil {
			return nil, err
		}
		ans.Rows[0] = append(ans.Rows[0], v)
		ans.Columns = append(ans.Columns, header(it, i))
	}
	return ans, nil
}

func anyAggregate(sel *sqlparser.Select) bool {
	for _, it := range sel.Items {
		if !it.Star && len(aggregates(nil, it.Expr)) > 0 {
			return true
		}
	}
	return false
}

// --- FROM ---

// source is one relation instance of the FROM clause.
type source struct {
	rel   sqldb.Relation
	alias string
	kind  sqlparser.JoinKind
	on    sqlparser.Expr // nil for comma sources
}

func buildFrom(db *sqldb.Database, sel *sqlparser.Select) (*rowset, error) {
	var sources []source
	add := func(table, alias string, kind sqlparser.JoinKind, on sqlparser.Expr) error {
		rel, err := db.Resolve(table)
		if err != nil {
			return err
		}
		if alias == "" {
			alias = table
		}
		sources = append(sources, source{rel: rel, alias: alias, kind: kind, on: on})
		return nil
	}
	for _, tr := range sel.From {
		if err := add(tr.Table, tr.Alias, sqlparser.JoinCross, nil); err != nil {
			return nil, err
		}
		for _, j := range tr.Joins {
			if err := add(j.Table, j.Alias, j.Kind, j.On); err != nil {
				return nil, err
			}
		}
	}

	conjuncts := conjunctsOf(sel.Where)
	cur, err := scanSource(sources[0])
	if err != nil {
		return nil, err
	}
	if cur, conjuncts, err = applyResolvable(cur, conjuncts); err != nil {
		return nil, err
	}
	for _, src := range sources[1:] {
		right, err := scanSource(src)
		if err != nil {
			return nil, err
		}
		switch {
		case src.kind == sqlparser.JoinLeft:
			cur, err = nestedLoop(cur, right, src.on, true)
		case src.on != nil:
			cur, err = nestedLoop(cur, right, src.on, false)
		default: // comma or CROSS: the WHERE conjuncts apply right after
			cur, err = nestedLoop(cur, right, nil, false)
		}
		if err != nil {
			return nil, err
		}
		if cur, conjuncts, err = applyResolvable(cur, conjuncts); err != nil {
			return nil, err
		}
	}
	// What is left names a column no prefix resolves: evaluating it
	// reports the unknown or ambiguous reference (or, over no rows,
	// nothing at all).
	for _, c := range conjuncts {
		if cur, err = filter(cur, c); err != nil {
			return nil, err
		}
	}
	return cur, nil
}

func scanSource(src source) (*rowset, error) {
	rs := &rowset{}
	for _, c := range src.rel.Schema() {
		rs.cols = append(rs.cols, column{qual: src.alias, name: c.Name})
	}
	err := src.rel.Scan(func(row []sqlval.Value) bool {
		rs.rows = append(rs.rows, append([]sqlval.Value(nil), row...))
		return true
	})
	return rs, err
}

// conjunctsOf flattens a conjunction.
func conjunctsOf(e sqlparser.Expr) []sqlparser.Expr {
	if e == nil {
		return nil
	}
	if be, ok := e.(*sqlparser.BinExpr); ok && be.Op == sqlparser.OpAnd {
		return append(conjunctsOf(be.L), conjunctsOf(be.R)...)
	}
	return []sqlparser.Expr{e}
}

// applyResolvable filters rs by every conjunct whose column references
// each name exactly one of rs's columns, and returns the others.
func applyResolvable(rs *rowset, conjuncts []sqlparser.Expr) (*rowset, []sqlparser.Expr, error) {
	var rest []sqlparser.Expr
next:
	for _, c := range conjuncts {
		for _, r := range sqlparser.ColRefs(c) {
			if len(rs.find(r.Qualifier, r.Name)) != 1 {
				rest = append(rest, c)
				continue next
			}
		}
		var err error
		if rs, err = filter(rs, c); err != nil {
			return nil, nil, err
		}
	}
	return rs, rest, nil
}

// filter keeps the rows on which pred is TRUE.
func filter(rs *rowset, pred sqlparser.Expr) (*rowset, error) {
	out := &rowset{cols: rs.cols}
	for _, r := range rs.rows {
		t, err := evalBool(pred, rs.scope(r))
		if err != nil {
			return nil, err
		}
		if t == sqlval.True {
			out.rows = append(out.rows, r)
		}
	}
	return out, nil
}

// nestedLoop joins every left row with every right row that satisfies on
// (every right row when on is nil). A LEFT join keeps an unmatched left
// row once, padded with NULLs.
func nestedLoop(l, r *rowset, on sqlparser.Expr, left bool) (*rowset, error) {
	if left && on == nil {
		return nil, fmt.Errorf("oracle: LEFT JOIN without ON")
	}
	out := &rowset{cols: append(append([]column(nil), l.cols...), r.cols...)}
	for _, lr := range l.rows {
		matched := false
		for _, rr := range r.rows {
			row := append(append(make([]sqlval.Value, 0, len(out.cols)), lr...), rr...)
			if on != nil {
				t, err := evalBool(on, out.scope(row))
				if err != nil {
					return nil, err
				}
				if t != sqlval.True {
					continue
				}
			}
			out.rows = append(out.rows, row)
			matched = true
		}
		if left && !matched {
			out.rows = append(out.rows, append(append([]sqlval.Value(nil), lr...), make([]sqlval.Value, len(r.cols))...))
		}
	}
	return out, nil
}

// --- projection ---

// header names an output column: its alias, a bare column's name, or the
// expression's SQL text.
func header(it sqlparser.SelectItem, pos int) string {
	switch {
	case it.Alias != "":
		return it.Alias
	case it.Expr == nil:
		return fmt.Sprintf("col%d", pos+1)
	}
	if cr, ok := it.Expr.(*sqlparser.ColRef); ok {
		return cr.Name
	}
	return it.Expr.SQL()
}

// items expands stars into one aliased column reference per matching
// column.
func items(sel *sqlparser.Select, cols []column) ([]sqlparser.SelectItem, error) {
	var out []sqlparser.SelectItem
	for _, it := range sel.Items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		n := len(out)
		for _, c := range cols {
			if it.Qualifier == "" || strings.EqualFold(c.qual, it.Qualifier) {
				out = append(out, sqlparser.SelectItem{
					Expr:  &sqlparser.ColRef{Qualifier: c.qual, Name: c.name},
					Alias: c.name,
				})
			}
		}
		if len(out) == n {
			return nil, fmt.Errorf("oracle: %s.* matches no column", it.Qualifier)
		}
	}
	return out, nil
}

// outputs returns the headers of items and the rowset layout they make.
func outputs(its []sqlparser.SelectItem) ([]string, []column) {
	headers := make([]string, len(its))
	cols := make([]column, len(its))
	for i, it := range its {
		headers[i] = header(it, i)
		cols[i] = column{name: headers[i]}
	}
	return headers, cols
}

func selectPlain(sel *sqlparser.Select, base *rowset) (*rowset, []string, []*scope, error) {
	its, err := items(sel, base.cols)
	if err != nil {
		return nil, nil, nil, err
	}
	headers, cols := outputs(its)
	out := &rowset{cols: cols}
	var under []*scope
	for _, r := range base.rows {
		s := base.scope(r)
		row := make([]sqlval.Value, len(its))
		for i, it := range its {
			if row[i], err = eval(it.Expr, s); err != nil {
				return nil, nil, nil, err
			}
		}
		out.rows = append(out.rows, row)
		under = append(under, s)
	}
	return out, headers, under, nil
}

func selectGrouped(sel *sqlparser.Select, base *rowset) (*rowset, []string, []*scope, error) {
	its, err := items(sel, base.cols)
	if err != nil {
		return nil, nil, nil, err
	}
	var calls []*sqlparser.FuncCall
	for _, it := range its {
		calls = aggregates(calls, it.Expr)
	}
	calls = aggregates(calls, sel.Having)

	// A group is its first row (which answers the plain columns) and, per
	// aggregate call, the argument values of all its rows.
	type group struct {
		first []sqlval.Value
		args  []*aggInput
	}
	newGroup := func(first []sqlval.Value) *group {
		g := &group{first: first}
		for _, c := range calls {
			g.args = append(g.args, &aggInput{call: c})
		}
		return g
	}
	groups := map[string]*group{}
	var order []string
	for _, r := range base.rows {
		s := base.scope(r)
		var key strings.Builder
		for _, g := range sel.GroupBy {
			v, err := eval(g, s)
			if err != nil {
				return nil, nil, nil, err
			}
			key.WriteString(valueKey(v))
		}
		g, ok := groups[key.String()]
		if !ok {
			g = newGroup(r)
			groups[key.String()] = g
			order = append(order, key.String())
		}
		for _, in := range g.args {
			if err := in.collect(s); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	// Aggregates without GROUP BY make one group, even over no rows.
	if len(groups) == 0 && len(sel.GroupBy) == 0 {
		groups[""] = newGroup(make([]sqlval.Value, len(base.cols)))
		order = append(order, "")
	}

	headers, cols := outputs(its)
	out := &rowset{cols: cols}
	var under []*scope
	for _, key := range order {
		g := groups[key]
		aggs := map[string]sqlval.Value{}
		for _, in := range g.args {
			v, err := in.result()
			if err != nil {
				return nil, nil, nil, err
			}
			aggs[in.call.SQL()] = v
		}
		s := &scope{cols: base.cols, row: g.first, aggs: aggs}
		if sel.Having != nil {
			t, err := evalBool(sel.Having, s)
			if err != nil {
				return nil, nil, nil, err
			}
			if t != sqlval.True {
				continue
			}
		}
		row := make([]sqlval.Value, len(its))
		for i, it := range its {
			if row[i], err = eval(it.Expr, s); err != nil {
				return nil, nil, nil, err
			}
		}
		out.rows = append(out.rows, row)
		under = append(under, s)
	}
	return out, headers, under, nil
}

// distinctRows keeps the first of each run of equal rows (valueKey
// equality per column), carrying the ORDER BY keys along.
func distinctRows(rows, keys [][]sqlval.Value) ([][]sqlval.Value, [][]sqlval.Value) {
	seen := map[string]bool{}
	var out, outKeys [][]sqlval.Value
	for i, r := range rows {
		var b strings.Builder
		for _, v := range r {
			b.WriteString(valueKey(v))
		}
		if seen[b.String()] {
			continue
		}
		seen[b.String()] = true
		out = append(out, r)
		if keys != nil {
			outKeys = append(outKeys, keys[i])
		}
	}
	return out, outKeys
}

// orderRows sorts rows stably by their precomputed keys: NULLs first,
// then numbers, text and booleans (sqlval.CompareForSort).
func orderRows(by []sqlparser.OrderItem, rows, keys [][]sqlval.Value) {
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for k, ob := range by {
			if c := sqlval.CompareForSort(keys[idx[a]][k], keys[idx[b]][k]); c != 0 {
				return (c < 0) != ob.Desc
			}
		}
		return false
	})
	sorted := make([][]sqlval.Value, len(rows))
	for i, j := range idx {
		sorted[i] = rows[j]
	}
	copy(rows, sorted)
}

// window applies OFFSET, then LIMIT. Each takes an integer argument
// (intArg); a negative one is an error.
func window(sel *sqlparser.Select, rows [][]sqlval.Value) ([][]sqlval.Value, error) {
	bound := func(e sqlparser.Expr, what string) (int64, bool, error) {
		if e == nil {
			return 0, false, nil
		}
		v, err := eval(e, &scope{})
		if err != nil {
			return 0, false, err
		}
		n, err := intArg(v)
		if err != nil {
			return 0, false, err
		}
		if n < 0 {
			return 0, false, fmt.Errorf("oracle: negative %s", what)
		}
		return n, true, nil
	}
	off, ok, err := bound(sel.Offset, "OFFSET")
	if err != nil {
		return nil, err
	}
	if ok {
		rows = rows[min(off, int64(len(rows))):]
	}
	lim, ok, err := bound(sel.Limit, "LIMIT")
	if err != nil {
		return nil, err
	}
	if ok {
		rows = rows[:min(lim, int64(len(rows)))]
	}
	return rows, nil
}
