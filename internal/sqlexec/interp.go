// interp.go — the materialising reference interpreter. This is the seed
// executor, stripped of its planner fast paths (the equi-hash join moved
// into the compiled pipeline, where it is governed by Options): it resolves
// column references by name per row, materialises a full rowset at every
// stage and only ever nested-loops joins. Production execution goes through
// the compiled SelectPlan (compile.go / run.go); the interpreter remains as
// the independent oracle the parity suite pins the compiled semantics to.

package sqlexec

import (
	"fmt"
	"sort"
	"strings"

	"crosse/internal/sqldb"
	"crosse/internal/sqlparser"
	"crosse/internal/sqlval"
)

// rowset is a materialised intermediate relation with scope metadata.
type rowset struct {
	cols []ScopeCol
	rows [][]sqlval.Value
}

func (rs *rowset) scope(row []sqlval.Value) *scope {
	return &scope{Cols: rs.cols, Row: row}
}

// colIndexes returns positions of a (qual, name) reference; used for
// ambiguity checks and hash-join key extraction.
func (rs *rowset) find(qual, name string) []int {
	var out []int
	for i, c := range rs.cols {
		if strings.EqualFold(c.Name, name) && (qual == "" || strings.EqualFold(c.Qualifier, qual)) {
			out = append(out, i)
		}
	}
	return out
}

// evalSelectInterp runs a SELECT through the reference interpreter.
func evalSelectInterp(db *sqldb.Database, sel *sqlparser.Select) (*Result, error) {
	// FROM-less SELECT evaluates items once against an empty scope.
	if len(sel.From) == 0 {
		return selectNoFrom(sel)
	}

	base, err := buildFrom(db, sel)
	if err != nil {
		return nil, err
	}

	// Residual WHERE conjuncts not consumed by join planning are applied
	// by buildFrom; here base is already filtered.

	grouped := len(sel.GroupBy) > 0 || sel.Having != nil || anyItemAggregate(sel)
	var out *rowset
	var headers []string
	var underlying []*scope // per-output-row scope for ORDER BY fallback
	if grouped {
		out, headers, underlying, err = selectGrouped(sel, base)
	} else {
		out, headers, underlying, err = selectPlain(sel, base)
	}
	if err != nil {
		return nil, err
	}

	// Compute ORDER BY keys before DISTINCT so keys stay aligned with rows.
	var keys [][]sqlval.Value
	if len(sel.OrderBy) > 0 {
		keys = make([][]sqlval.Value, len(out.rows))
		for i, r := range out.rows {
			ks := make([]sqlval.Value, len(sel.OrderBy))
			for k, ob := range sel.OrderBy {
				// Projected aliases first, then underlying columns.
				v, err := eval(ob.Expr, out.scope(r))
				if err != nil {
					v, err = eval(ob.Expr, underlying[i])
					if err != nil {
						return nil, fmt.Errorf("sqlexec: ORDER BY: %w", err)
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
		orderRows(sel, out, keys)
	}

	if out2, err := applyLimitOffset(sel, out.rows); err != nil {
		return nil, err
	} else {
		out.rows = out2
	}

	return &Result{Columns: headers, Rows: out.rows}, nil
}

func selectNoFrom(sel *sqlparser.Select) (*Result, error) {
	var headers []string
	var row []sqlval.Value
	empty := &scope{}
	for i, it := range sel.Items {
		if it.Star {
			return nil, fmt.Errorf("sqlexec: SELECT * requires a FROM clause")
		}
		v, err := eval(it.Expr, empty)
		if err != nil {
			return nil, err
		}
		row = append(row, v)
		headers = append(headers, itemName(it, i))
	}
	return &Result{Columns: headers, Rows: [][]sqlval.Value{row}}, nil
}

func anyItemAggregate(sel *sqlparser.Select) bool {
	for _, it := range sel.Items {
		if !it.Star && len(aggregateCalls(nil, it.Expr)) > 0 {
			return true
		}
	}
	return false
}

// --- FROM construction with join planning ---

// source is one relation instance in the FROM clause.
type source struct {
	rel   sqldb.Relation
	alias string // effective qualifier
	kind  sqlparser.JoinKind
	on    sqlparser.Expr // nil for comma/cross sources
}

func buildFrom(db *sqldb.Database, sel *sqlparser.Select) (*rowset, error) {
	var sources []source
	for _, tr := range sel.From {
		rel, err := db.Resolve(tr.Table)
		if err != nil {
			return nil, err
		}
		alias := tr.Alias
		if alias == "" {
			alias = tr.Table
		}
		sources = append(sources, source{rel: rel, alias: alias, kind: sqlparser.JoinCross})
		for _, j := range tr.Joins {
			jrel, err := db.Resolve(j.Table)
			if err != nil {
				return nil, err
			}
			jalias := j.Alias
			if jalias == "" {
				jalias = j.Table
			}
			sources = append(sources, source{rel: jrel, alias: jalias, kind: j.Kind, on: j.On})
		}
	}

	// Split WHERE into conjuncts for early application / equi-join use.
	conjuncts := splitAnd(sel.Where)

	cur, err := scanSource(sources[0])
	if err != nil {
		return nil, err
	}
	cur, conjuncts, err = applyReadyFilters(cur, conjuncts)
	if err != nil {
		return nil, err
	}

	for _, src := range sources[1:] {
		right, err := scanSource(src)
		if err != nil {
			return nil, err
		}
		switch src.kind {
		case sqlparser.JoinInner:
			cur, err = joinInner(cur, right, src.on)
		case sqlparser.JoinLeft:
			cur, err = joinLeft(cur, right, src.on)
		default: // cross/comma; WHERE conjuncts apply right after
			cur = crossProduct(cur, right)
		}
		if err != nil {
			return nil, err
		}
		cur, conjuncts, err = applyReadyFilters(cur, conjuncts)
		if err != nil {
			return nil, err
		}
	}

	// Any remaining conjuncts must now be evaluable.
	for _, c := range conjuncts {
		filtered := cur.rows[:0:0]
		for _, r := range cur.rows {
			t, err := evalBool(c, cur.scope(r))
			if err != nil {
				return nil, err
			}
			if t == sqlval.True {
				filtered = append(filtered, r)
			}
		}
		cur = &rowset{cols: cur.cols, rows: filtered}
	}
	return cur, nil
}

func scanSource(src source) (*rowset, error) {
	schema := src.rel.Schema()
	cols := make([]ScopeCol, len(schema))
	for i, c := range schema {
		cols[i] = ScopeCol{Qualifier: src.alias, Name: c.Name}
	}
	rs := &rowset{cols: cols}
	arena := sqlval.NewRowArena(len(schema))
	err := src.rel.Scan(func(row []sqlval.Value) bool {
		rs.rows = append(rs.rows, arena.Copy(row))
		return true
	})
	return rs, err
}

// splitAnd flattens a conjunction into its conjuncts.
func splitAnd(e sqlparser.Expr) []sqlparser.Expr {
	if e == nil {
		return nil
	}
	if be, ok := e.(*sqlparser.BinExpr); ok && be.Op == sqlparser.OpAnd {
		return append(splitAnd(be.L), splitAnd(be.R)...)
	}
	return []sqlparser.Expr{e}
}

// resolvable reports whether every column the expression references is
// present (unambiguously) in the rowset.
func resolvable(e sqlparser.Expr, rs *rowset) bool {
	for _, r := range sqlparser.ColRefs(e) {
		if len(rs.find(r.Qualifier, r.Name)) != 1 {
			return false
		}
	}
	return true
}

// applyReadyFilters applies every conjunct that is already resolvable,
// returning the filtered rowset and the remaining conjuncts.
func applyReadyFilters(rs *rowset, conjuncts []sqlparser.Expr) (*rowset, []sqlparser.Expr, error) {
	var rest []sqlparser.Expr
	for _, c := range conjuncts {
		if !resolvable(c, rs) {
			rest = append(rest, c)
			continue
		}
		var filtered [][]sqlval.Value
		for _, r := range rs.rows {
			t, err := evalBool(c, rs.scope(r))
			if err != nil {
				return nil, nil, err
			}
			if t == sqlval.True {
				filtered = append(filtered, r)
			}
		}
		rs = &rowset{cols: rs.cols, rows: filtered}
	}
	return rs, rest, nil
}

func concatCols(a, b []ScopeCol) []ScopeCol {
	out := make([]ScopeCol, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

func concatRows(a, b []sqlval.Value) []sqlval.Value {
	out := make([]sqlval.Value, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

func crossProduct(l, r *rowset) *rowset {
	out := &rowset{cols: concatCols(l.cols, r.cols)}
	for _, lr := range l.rows {
		for _, rr := range r.rows {
			out.rows = append(out.rows, concatRows(lr, rr))
		}
	}
	return out
}

func joinInner(l, r *rowset, on sqlparser.Expr) (*rowset, error) {
	if on != nil {
		merged := &rowset{cols: concatCols(l.cols, r.cols)}
		for _, lr := range l.rows {
			for _, rr := range r.rows {
				row := concatRows(lr, rr)
				t, err := evalBool(on, merged.scope(row))
				if err != nil {
					return nil, err
				}
				if t == sqlval.True {
					merged.rows = append(merged.rows, row)
				}
			}
		}
		return merged, nil
	}
	return crossProduct(l, r), nil
}

func joinLeft(l, r *rowset, on sqlparser.Expr) (*rowset, error) {
	if on == nil {
		return nil, fmt.Errorf("sqlexec: LEFT JOIN requires ON")
	}
	out := &rowset{cols: concatCols(l.cols, r.cols)}
	pad := make([]sqlval.Value, len(r.cols))
	for _, lr := range l.rows {
		matched := false
		for _, rr := range r.rows {
			row := concatRows(lr, rr)
			t, err := evalBool(on, out.scope(row))
			if err != nil {
				return nil, err
			}
			if t == sqlval.True {
				out.rows = append(out.rows, row)
				matched = true
			}
		}
		if !matched {
			out.rows = append(out.rows, concatRows(lr, pad))
		}
	}
	return out, nil
}

// --- projection ---

func itemName(it sqlparser.SelectItem, pos int) string {
	if it.Alias != "" {
		return it.Alias
	}
	if cr, ok := it.Expr.(*sqlparser.ColRef); ok {
		return cr.Name
	}
	if it.Expr != nil {
		return it.Expr.SQL()
	}
	return fmt.Sprintf("col%d", pos+1)
}

// expandItems resolves stars into concrete column projections against a
// column layout (shared by the interpreter and the compile layer).
func expandItems(sel *sqlparser.Select, cols []ScopeCol) ([]sqlparser.SelectItem, error) {
	var out []sqlparser.SelectItem
	for _, it := range sel.Items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		matched := false
		for _, c := range cols {
			if it.Qualifier != "" && !strings.EqualFold(c.Qualifier, it.Qualifier) {
				continue
			}
			matched = true
			out = append(out, sqlparser.SelectItem{
				Expr:  &sqlparser.ColRef{Qualifier: c.Qualifier, Name: c.Name},
				Alias: c.Name,
			})
		}
		if !matched {
			return nil, fmt.Errorf("sqlexec: %s.* matches no columns", it.Qualifier)
		}
	}
	return out, nil
}

func selectPlain(sel *sqlparser.Select, base *rowset) (*rowset, []string, []*scope, error) {
	items, err := expandItems(sel, base.cols)
	if err != nil {
		return nil, nil, nil, err
	}
	headers := make([]string, len(items))
	cols := make([]ScopeCol, len(items))
	for i, it := range items {
		headers[i] = itemName(it, i)
		cols[i] = ScopeCol{Name: headers[i]}
	}
	out := &rowset{cols: cols, rows: make([][]sqlval.Value, 0, len(base.rows))}
	scopes := make([]*scope, 0, len(base.rows))
	// Scopes and rows are block-allocated: one backing array each instead
	// of a per-row allocation (this loop dominates SELECT materialisation).
	scopeBuf := make([]scope, len(base.rows))
	arena := sqlval.NewRowArena(len(items))
	for bi, r := range base.rows {
		scopeBuf[bi] = scope{Cols: base.cols, Row: r}
		s := &scopeBuf[bi]
		row := arena.Next()
		for i, it := range items {
			v, err := eval(it.Expr, s)
			if err != nil {
				return nil, nil, nil, err
			}
			row[i] = v
		}
		out.rows = append(out.rows, row)
		scopes = append(scopes, s)
	}
	return out, headers, scopes, nil
}

func selectGrouped(sel *sqlparser.Select, base *rowset) (*rowset, []string, []*scope, error) {
	items, err := expandItems(sel, base.cols)
	if err != nil {
		return nil, nil, nil, err
	}

	// Gather all aggregate calls from items and HAVING.
	var aggCalls []*sqlparser.FuncCall
	for _, it := range items {
		aggCalls = aggregateCalls(aggCalls, it.Expr)
	}
	aggCalls = aggregateCalls(aggCalls, sel.Having)

	type group struct {
		firstRow []sqlval.Value
		aggs     []*aggState
	}
	groups := map[string]*group{}
	var order []string

	keyOf := func(s *scope) (string, error) {
		var b strings.Builder
		for _, g := range sel.GroupBy {
			v, err := eval(g, s)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "%d|%s\x00", v.Type(), v.String())
		}
		return b.String(), nil
	}

	for _, r := range base.rows {
		s := base.scope(r)
		key, err := keyOf(s)
		if err != nil {
			return nil, nil, nil, err
		}
		grp, ok := groups[key]
		if !ok {
			grp = &group{firstRow: r}
			for _, c := range aggCalls {
				grp.aggs = append(grp.aggs, newAggState(c, false))
			}
			groups[key] = grp
			order = append(order, key)
		}
		for _, a := range grp.aggs {
			if err := a.add(s); err != nil {
				return nil, nil, nil, err
			}
		}
	}

	// A grand-total aggregate over zero rows still yields one group.
	if len(groups) == 0 && len(sel.GroupBy) == 0 {
		grp := &group{firstRow: make([]sqlval.Value, len(base.cols))}
		for _, c := range aggCalls {
			grp.aggs = append(grp.aggs, newAggState(c, false))
		}
		groups[""] = grp
		order = append(order, "")
	}

	headers := make([]string, len(items))
	cols := make([]ScopeCol, len(items))
	for i, it := range items {
		headers[i] = itemName(it, i)
		cols[i] = ScopeCol{Name: headers[i]}
	}

	out := &rowset{cols: cols}
	var scopes []*scope
	for _, key := range order {
		grp := groups[key]
		aggVals := map[string]sqlval.Value{}
		for _, a := range grp.aggs {
			v, err := a.result()
			if err != nil {
				return nil, nil, nil, err
			}
			aggVals[a.call.SQL()] = v
		}
		s := &scope{Cols: base.cols, Row: grp.firstRow, Aggs: aggVals}
		if sel.Having != nil {
			t, err := evalBool(sel.Having, s)
			if err != nil {
				return nil, nil, nil, err
			}
			if t != sqlval.True {
				continue
			}
		}
		row := make([]sqlval.Value, len(items))
		for i, it := range items {
			v, err := eval(it.Expr, s)
			if err != nil {
				return nil, nil, nil, err
			}
			row[i] = v
		}
		out.rows = append(out.rows, row)
		scopes = append(scopes, s)
	}
	return out, headers, scopes, nil
}

// distinctRows deduplicates rows (keeping first occurrences), carrying the
// parallel ORDER BY key slice along when present.
func distinctRows(rows [][]sqlval.Value, keys [][]sqlval.Value) ([][]sqlval.Value, [][]sqlval.Value) {
	seen := map[string]struct{}{}
	out := rows[:0:0]
	var outKeys [][]sqlval.Value
	for i, r := range rows {
		var b strings.Builder
		for _, v := range r {
			fmt.Fprintf(&b, "%d|%s\x00", v.Type(), v.String())
		}
		key := b.String()
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		out = append(out, r)
		if keys != nil {
			outKeys = append(outKeys, keys[i])
		}
	}
	return out, outKeys
}

// orderRows sorts out.rows by the pre-computed keys.
func orderRows(sel *sqlparser.Select, out *rowset, keys [][]sqlval.Value) {
	type keyed struct {
		row  []sqlval.Value
		keys []sqlval.Value
	}
	items := make([]keyed, len(out.rows))
	for i, r := range out.rows {
		items[i] = keyed{row: r, keys: keys[i]}
	}
	sort.SliceStable(items, func(i, j int) bool {
		for k, ob := range sel.OrderBy {
			c := sqlval.CompareForSort(items[i].keys[k], items[j].keys[k])
			if c != 0 {
				if ob.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	for i := range items {
		out.rows[i] = items[i].row
	}
}

func applyLimitOffset(sel *sqlparser.Select, rows [][]sqlval.Value) ([][]sqlval.Value, error) {
	empty := &scope{}
	if sel.Offset != nil {
		v, err := eval(sel.Offset, empty)
		if err != nil {
			return nil, err
		}
		n, err := intArg(v)
		if err != nil {
			return nil, err
		}
		if n < 0 {
			return nil, fmt.Errorf("sqlexec: negative OFFSET")
		}
		if n >= int64(len(rows)) {
			rows = nil
		} else {
			rows = rows[n:]
		}
	}
	if sel.Limit != nil {
		v, err := eval(sel.Limit, empty)
		if err != nil {
			return nil, err
		}
		n, err := intArg(v)
		if err != nil {
			return nil, err
		}
		if n < 0 {
			return nil, fmt.Errorf("sqlexec: negative LIMIT")
		}
		if n < int64(len(rows)) {
			rows = rows[:n]
		}
	}
	return rows, nil
}
