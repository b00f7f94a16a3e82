package core

import (
	"fmt"
	"slices"
	"strings"

	"crosse/internal/sesql"
	"crosse/internal/sqldb"
	"crosse/internal/sqlexec"
	"crosse/internal/sqlparser"
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
	// query: tagged conditions neutralised, hidden projections added and,
	// with deferTail, ORDER BY / LIMIT / OFFSET stripped.
	plan      *sqlexec.SelectPlan
	baseSQL   sqlparser.Pieces // plan's SELECT text, cut at its slots
	deferTail bool
	visible   int // the base query's visible columns (the rest are hidden)
	where     []enrichStep
	schema    []enrichStep
}

// enrichStep is one compiled enrichment clause.
type enrichStep struct {
	en sesql.Enrichment
	// text is the constructed SPARQL text of the clause's extract; a
	// stored query of the same name, looked up per user, replaces it.
	text string
	// WHERE enrichments: the tagged condition over the base row plus the
	// candidate value __v, and for REPLACEVARIABLE the attribute's hidden
	// column and table.
	pred    *sqlexec.Predicate
	attrIdx int
	table   string
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
	// ORDER BY / LIMIT / OFFSET stay in the base query (top-K pushdown)
	// unless enrichment changes what they see: a WHERE enrichment filters
	// rows afterwards, and a key naming an enriched column has nothing to
	// sort by until the column exists. Then they wait for the final stage.
	sp.deferTail = (len(q.Select.OrderBy) > 0 || q.Select.Limit != nil || q.Select.Offset != nil) &&
		(len(whereEnr) > 0 || ordersByEnriched(db, opts, q, base, len(hidden.order), schemaEnr))
	if sp.deferTail {
		base.OrderBy, base.Limit, base.Offset = nil, nil, nil
	}
	if sp.plan, err = sqlexec.CompileOpts(db, base, opts); err != nil {
		return nil, fmt.Errorf("core: base query: %w", err)
	}
	sp.baseSQL = pieces(sqlparser.SelectSQL(base))
	headers := sp.plan.Columns()
	sp.visible = len(headers) - len(hidden.order)

	for _, en := range whereEnr {
		step, err := e.compileWhereStep(q, en, hidden, headers)
		if err != nil {
			return nil, err
		}
		sp.where = append(sp.where, step)
	}
	for _, en := range schemaEnr {
		step := enrichStep{en: en}
		switch en.Kind {
		case sesql.BoolSchemaExtension, sesql.BoolSchemaReplacement:
			step.text = e.membersText(en)
		default:
			step.text = e.pairsText(en)
		}
		sp.schema = append(sp.schema, step)
	}
	return sp, nil
}

// compileWhereStep rewrites a WHERE enrichment's tagged condition — every
// referenced column to its hidden alias, and the constant (REPLACECONSTANT)
// or the attribute (REPLACEVARIABLE) to the pseudo-variable __v — and
// compiles it over the base row extended with __v.
func (e *Enricher) compileWhereStep(q *sesql.Query, en sesql.Enrichment, hidden *hiddenCols, headers []string) (enrichStep, error) {
	step := enrichStep{en: en}
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
		if step.attrIdx = slices.Index(headers, hidden.alias[attr.SQL()]); step.attrIdx < 0 {
			return step, fmt.Errorf("core: internal: hidden column for %s missing", en.Attr)
		}
		step.table = attrTable(q.Select, en.Attr)
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

// ordersByEnriched reports whether an ORDER BY key names a column a schema
// enrichment adds or substitutes — a column the base query cannot sort by.
// Those columns are named by enrichHeader, which suffixes a property whose
// short name the base headers already hold (dangerLevel_2). So when a key
// could be such a name, the base query is planned without its tail to
// learn its headers and the enrichment steps' naming is replayed over
// them.
func ordersByEnriched(db *sqldb.Database, opts sqlexec.Options, q *sesql.Query, base *sqlparser.Select, hidden int, schemaEnr []sesql.Enrichment) bool {
	var refs, keys []*sqlparser.ColRef
	for _, ob := range q.Select.OrderBy {
		refs = append(refs, sqlparser.ColRefs(ob.Expr)...)
	}
	for _, cr := range refs {
		for _, en := range schemaEnr {
			short := shortName(en.Property)
			if cr.Qualifier == "" && len(cr.Name) >= len(short) && strings.EqualFold(cr.Name[:len(short)], short) {
				keys = append(keys, cr)
				break
			}
		}
	}
	if len(keys) == 0 {
		return false
	}
	stripped := *base
	stripped.OrderBy, stripped.Limit, stripped.Offset = nil, nil, nil
	plan, err := sqlexec.CompileOpts(db, &stripped, opts)
	if err != nil {
		return false // the base query reports it
	}
	headers := plan.Columns()
	visible := len(headers) - hidden
	for _, en := range schemaEnr {
		attrIdx, err := resolveAttr(q.Select, headers[:visible], en.Attr)
		if err != nil {
			return true // the enrichment step reports it
		}
		var name string
		headers, name = enrichHeader(headers, visible, attrIdx, en)
		if !replaces(en) {
			visible++
		}
		for _, cr := range keys {
			if strings.EqualFold(cr.Name, name) {
				return true
			}
		}
	}
	return false
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
