package core

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"crosse/internal/sesql"
	"crosse/internal/sqldb"
	"crosse/internal/sqlexec"
	"crosse/internal/sqlparser"
	"crosse/internal/sqlval"
)

// shapePlan is one SESQL shape compiled against one schema epoch:
// everything about evaluating a text that does not depend on its literals.
// A request binds its literal vector into it (see QueryStatsContext).
type shapePlan struct {
	epoch uint64
	// textOnly marks a shape whose template could not be compiled although
	// a text of it could (a tagged condition found only by value, a
	// REPLACECONSTANT constant written as a literal): every text of the
	// shape is then compiled as its own shape.
	textOnly bool

	q *sesql.Query // the template: its literals are *sqlparser.Param slots
	// plan runs the whole query when it has no enrichment, else the base
	// query: tagged conditions neutralised, hidden projections added, and
	// the part of ORDER BY / LIMIT / OFFSET that tail does not apply.
	plan    *sqlexec.SelectPlan
	baseSQL sqlparser.Pieces // plan's SELECT text, cut at its slots

	// The JoinManager, compiled. A request joins in one scratch row of
	// scratch slots: the base row's width columns (visible, then hidden),
	// the slot __v where a WHERE step tries its candidates, then one slot
	// per schema step.
	width, scratch int
	steps          []enrichStep // the WHERE steps, then the schema steps
	headers        []string     // the result's columns
	out            []int        // the scratch slot of each result column
	// tail is the final stage — the deferred ORDER BY / LIMIT / OFFSET,
	// or only the window re-applied after a fan-out — and finalSQL its
	// rendering as Fig. 6's final query. nil and "" when the base query
	// applies the whole tail.
	tail     *sqlexec.Tail
	finalSQL string
}

// enrichStep is one compiled enrichment clause.
type enrichStep struct {
	en sesql.Enrichment
	// text is the constructed SPARQL text of the clause's extract; a
	// stored query of the same name, looked up per user, replaces it.
	text string
	// pred is a WHERE step's tagged condition over the scratch row, with
	// the candidate in slot __v.
	pred *sqlexec.Predicate
	// attr is the scratch slot of the value whose join key selects the
	// candidates (unused by REPLACECONSTANT, whose candidates are the same
	// for every row); table and column pick its mapping rule.
	attr          int
	table, column string
	// out is the scratch slot each candidate is written to; miss is the
	// candidate list of a value the extract does not hold.
	out  int
	miss []sqlval.Value
}

// textKey is the shape key of a text that is its own shape. No sesql.Shape
// key starts with a NUL byte (the SQL lexer rejects it), so the two never
// collide.
func textKey(text string) string { return "\x00" + text }

// shape returns the compiled shape plan of text and the literal vector to
// bind into it. late reports that err came from compiling rather than
// parsing, which the pipeline reports only after resolving the user.
func (e *Enricher) shape(text string) (*shapePlan, sesql.Literals, bool, error) {
	db := e.DB.Catalog()
	if key, lits, ok := sesql.Shape(text); ok {
		sp, _, err := e.lookupShape(db, key, func() (*sesql.Query, error) { return sesql.ParseTemplate(key) })
		if err == nil && !sp.textOnly {
			return sp, lits, false, nil
		}
		if err != nil {
			tsp, late, terr := e.lookupShape(db, textKey(text), func() (*sesql.Query, error) { return sesql.Parse(text) })
			if terr == nil {
				// The text compiles where its template does not: the
				// shape's texts skip the template from now on.
				e.cache.shapes.Put(e.shapeKey(db, key), &shapePlan{epoch: tsp.epoch, textOnly: true})
			}
			return tsp, sesql.Literals{}, late, terr
		}
	}
	sp, late, err := e.lookupShape(db, textKey(text), func() (*sesql.Query, error) { return sesql.Parse(text) })
	return sp, sesql.Literals{}, late, err
}

func (e *Enricher) shapeKey(db *sqldb.Database, shape string) shapeKey {
	return shapeKey{db: db, mapping: e.Mapping, opts: e.opts.SQL(), shape: shape}
}

// lookupShape returns the cached plan of a shape, compiling and caching it
// on a miss (or when the schema epoch moved since it was compiled).
func (e *Enricher) lookupShape(db *sqldb.Database, shape string, parse func() (*sesql.Query, error)) (*shapePlan, bool, error) {
	epoch := db.SchemaEpoch()
	k := e.shapeKey(db, shape)
	if sp, ok := e.cache.shapes.Get(k, func(p *shapePlan) bool { return p.epoch == epoch }); ok {
		return sp, false, nil
	}
	q, err := parse()
	if err != nil {
		return nil, false, err
	}
	// A text that is its own shape has no slots; its SELECT text is spliced
	// as is (only a shape's markers are certain not to occur in names).
	sp, err := e.compileShape(db, q, !strings.HasPrefix(shape, "\x00"))
	if err != nil {
		return nil, true, err
	}
	sp.epoch = epoch
	e.cache.shapes.Put(k, sp)
	return sp, false, nil
}

// compileShape lowers a parsed template (or text) into a shape plan: the
// enrichment split, the base query rewrite, its plan, and each
// enrichment's predicate and SPARQL text. slotted says q came from a
// template, whose texts carry slot markers to cut.
func (e *Enricher) compileShape(db *sqldb.Database, q *sesql.Query, slotted bool) (*shapePlan, error) {
	opts := e.opts.SQL()
	pieces := func(text string) sqlparser.Pieces {
		if slotted {
			return sqlparser.SplitParams(text)
		}
		return sqlparser.Pieces{Text: []string{text}}
	}
	sp := &shapePlan{q: q}
	if len(q.Enrichments) == 0 {
		plan, err := sqlexec.CompileOpts(db, q.Select, opts)
		if err != nil {
			return nil, err
		}
		sp.plan, sp.baseSQL = plan, pieces(q.SQL)
		return sp, nil
	}

	// Split enrichments into WHERE-affecting and schema-affecting.
	var whereEnr, schemaEnr []sesql.Enrichment
	for _, en := range q.Enrichments {
		switch en.Kind {
		case sesql.ReplaceConstant, sesql.ReplaceVariable:
			whereEnr = append(whereEnr, en)
		default:
			schemaEnr = append(schemaEnr, en)
		}
	}
	if len(whereEnr) > 0 {
		if q.Select.Distinct || len(q.Select.GroupBy) > 0 || q.Select.Having != nil {
			return nil, fmt.Errorf("core: WHERE enrichment requires a plain SELECT (no DISTINCT/GROUP BY)")
		}
	}

	base, hidden, err := buildBaseQuery(q, whereEnr)
	if err != nil {
		return nil, err
	}
	// The base query compiles without its tail, so that its headers are
	// known before deciding which part of the tail it keeps.
	sel := q.Select
	base.OrderBy, base.Limit, base.Offset = nil, nil, nil
	plan, err := sqlexec.CompileOpts(db, base, opts)
	if err != nil {
		return nil, fmt.Errorf("core: base query: %w", err)
	}
	headers := plan.Columns()
	sp.width, sp.scratch = len(headers), len(headers)+1+len(schemaEnr)

	for _, en := range whereEnr {
		step, err := e.compileWhereStep(q, en, hidden, headers)
		if err != nil {
			return nil, err
		}
		sp.steps = append(sp.steps, step)
	}

	// The result's columns: the visible base columns, each schema step
	// adding its column after them or substituting it for the attribute's.
	// A name the result (or a hidden column) already holds is suffixed
	// (dangerLevel_2).
	visible := sp.width - len(hidden.order)
	sp.headers = slices.Clone(headers[:visible])
	for i := range visible {
		sp.out = append(sp.out, i)
	}
	var enriched []string
	fanOut := false
	for i, en := range schemaEnr {
		at, err := resolveAttr(sel, sp.headers, en.Attr)
		if err != nil {
			return nil, err
		}
		step := enrichStep{en: en, attr: sp.out[at], table: attrTable(sel, en.Attr),
			column: parseAttrRef(en.Attr).Name, out: sp.width + 1 + i}
		switch en.Kind {
		case sesql.BoolSchemaExtension, sesql.BoolSchemaReplacement:
			step.text, step.miss = e.membersText(en), isFalse
		default:
			step.text, step.miss = e.pairsText(en), isNull
			fanOut = true
		}
		sp.steps = append(sp.steps, step)
		name := uniqueName(shortName(en.Property), slices.Concat(sp.headers, hidden.order))
		enriched = append(enriched, name)
		if replaces(en) {
			sp.headers[at], sp.out[at] = name, step.out
		} else {
			sp.headers, sp.out = append(sp.headers, name), append(sp.out, step.out)
		}
	}

	// Placement of ORDER BY / LIMIT / OFFSET. They wait for the final
	// stage when a WHERE step filters rows after the base query, or when a
	// key names an enriched column, which does not exist until the join.
	// Otherwise the base query applies them (top-K pushdown), except that
	// a fan-out (a SCHEMAEXTENSION/-REPLACEMENT step, which can yield
	// several rows per base row) would stretch the window: the base query
	// then keeps its ORDER BY and its first offset+limit rows, which hold
	// the window because every base row yields at least one row, and the
	// final stage re-applies the window.
	limit, offset, err := sqlexec.LimitOffset(sel)
	if err != nil {
		return nil, fmt.Errorf("core: base query: %w", err)
	}
	hasTail := len(sel.OrderBy) > 0 || limit >= 0 || offset >= 0
	deferAll := hasTail && (len(whereEnr) > 0 || ordersBy(sel.OrderBy, enriched))
	window := !deferAll && fanOut && (limit >= 0 || offset > 0)
	if hasTail && !deferAll {
		base.OrderBy, base.Limit, base.Offset = sel.OrderBy, sel.Limit, sel.Offset
		if window {
			base.Limit, base.Offset = nil, nil
			if limit >= 0 && limit <= math.MaxInt-max(offset, 0) {
				base.Limit = &sqlparser.Literal{Val: sqlval.NewInt(int64(limit + max(offset, 0)))}
			}
		}
		if plan, err = plan.WithTail(base); err != nil {
			return nil, fmt.Errorf("core: base query: %w", err)
		}
	}
	sp.plan, sp.baseSQL = plan, pieces(sqlparser.SelectSQL(base))

	if deferAll || window {
		final := &sqlparser.Select{From: []sqlparser.TableRef{{Table: "sesql_result"}}, Limit: sel.Limit, Offset: sel.Offset}
		if deferAll {
			final.OrderBy = sel.OrderBy
		}
		cols := make([]sqlexec.ScopeCol, len(sp.headers))
		for i, h := range sp.headers {
			final.Items = append(final.Items, sqlparser.SelectItem{Expr: &sqlparser.ColRef{Name: h}})
			cols[i] = sqlexec.ScopeCol{Name: h}
		}
		if sp.tail, err = sqlexec.CompileTail(cols, final); err != nil {
			return nil, fmt.Errorf("core: final stage: %w", err)
		}
		sp.finalSQL = sqlparser.SelectSQL(final)
	}
	return sp, nil
}

// ordersBy reports whether an ORDER BY key refers to one of the named
// result columns.
func ordersBy(order []sqlparser.OrderItem, names []string) bool {
	for _, ob := range order {
		for _, cr := range sqlparser.ColRefs(ob.Expr) {
			if cr.Qualifier == "" && slices.ContainsFunc(names, func(n string) bool { return strings.EqualFold(n, cr.Name) }) {
				return true
			}
		}
	}
	return false
}

// compileWhereStep rewrites a WHERE enrichment's tagged condition — every
// referenced column to its hidden alias, and the constant (REPLACECONSTANT)
// or the attribute (REPLACEVARIABLE) to the pseudo-variable __v — and
// compiles it over the base row extended with __v.
func (e *Enricher) compileWhereStep(q *sesql.Query, en sesql.Enrichment, hidden *hiddenCols, headers []string) (enrichStep, error) {
	step := enrichStep{en: en, out: len(headers)}
	tag := q.Conds[en.CondID]
	cond := tag.Expr
	refs := sqlparser.ColRefs(tag.Expr)
	pseudo := &sqlparser.ColRef{Name: "__v"}

	switch en.Kind {
	case sesql.ReplaceConstant:
		rewritten, n := sesql.ReplaceSubtree(cond, parseConstant(en.Attr), pseudo)
		if n == 0 {
			return step, fmt.Errorf("core: constant %s does not appear in condition %s", en.Attr, en.CondID)
		}
		cond = rewritten
		step.text = e.valuesText(en)
	case sesql.ReplaceVariable:
		attr := parseAttrRef(en.Attr)
		rewritten, n := sesql.ReplaceSubtree(cond, attr, pseudo)
		if n == 0 {
			return step, fmt.Errorf("core: attribute %s does not appear in condition %s", en.Attr, en.CondID)
		}
		cond = rewritten
		step.text = e.pairsText(en)
		if step.attr = slices.Index(headers, hidden.alias[attr.SQL()]); step.attr < 0 {
			return step, fmt.Errorf("core: internal: hidden column for %s missing", en.Attr)
		}
		step.table, step.column = attrTable(q.Select, en.Attr), attr.Name
	}
	for _, cr := range refs {
		alias, ok := hidden.alias[cr.SQL()]
		if !ok {
			continue // already rewritten to __v
		}
		cond, _ = sesql.ReplaceSubtree(cond, cr, &sqlparser.ColRef{Name: alias})
	}

	scopeCols := make([]sqlexec.ScopeCol, len(headers)+1)
	for i, h := range headers {
		scopeCols[i] = sqlexec.ScopeCol{Name: h}
	}
	scopeCols[len(headers)] = sqlexec.ScopeCol{Name: "__v"}
	pred, err := sqlexec.CompilePredicate(scopeCols, cond)
	if err != nil {
		return step, fmt.Errorf("core: WHERE enrichment condition: %w", err)
	}
	step.pred = pred
	return step, nil
}

// The constructed SPARQL texts of the three extracts, built once per
// compiled shape and enrichment.

// pairsText selects subject→object pairs of the enrichment's property.
func (e *Enricher) pairsText(en sesql.Enrichment) string {
	return fmt.Sprintf("SELECT ?s ?o WHERE { ?s <%s> ?o }", e.Mapping.PropertyIRI(en.Property).Value)
}

// membersText selects the subjects related to the concept through the
// property (the boolean enrichments).
func (e *Enricher) membersText(en sesql.Enrichment) string {
	prop := e.Mapping.PropertyIRI(en.Property)
	var parts []string
	for _, c := range e.Mapping.ConceptTerms(en.Concept) {
		parts = append(parts, fmt.Sprintf("{ ?s <%s> %s }", prop.Value, c.String()))
	}
	return "SELECT DISTINCT ?s WHERE { " + strings.Join(parts, " UNION ") + " }"
}

// valuesText selects the objects of the triples whose subject is the
// REPLACECONSTANT constant.
func (e *Enricher) valuesText(en sesql.Enrichment) string {
	prop := e.Mapping.PropertyIRI(en.Property)
	var parts []string
	for _, c := range e.Mapping.ConceptTerms(en.Attr) {
		parts = append(parts, fmt.Sprintf("{ %s <%s> ?o }", c.String(), prop.Value))
	}
	return "SELECT ?o WHERE { " + strings.Join(parts, " UNION ") + " }"
}
