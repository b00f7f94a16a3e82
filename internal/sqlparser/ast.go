package sqlparser

import (
	"strings"
	"unicode"

	"crosse/internal/sqlval"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// --- DDL ---

// ColumnDef is one column in CREATE TABLE.
type ColumnDef struct {
	Name       string
	Type       sqlval.Type
	NotNull    bool
	PrimaryKey bool
}

// CreateTable is CREATE TABLE name (cols...).
type CreateTable struct {
	Name        string
	IfNotExists bool
	Columns     []ColumnDef
}

// DropTable is DROP TABLE [IF EXISTS] name.
type DropTable struct {
	Name     string
	IfExists bool
}

// CreateIndex is CREATE INDEX name ON table (column).
type CreateIndex struct {
	Name   string
	Table  string
	Column string
}

func (*CreateTable) stmt() {}
func (*DropTable) stmt()   {}
func (*CreateIndex) stmt() {}

// --- DML ---

// Insert is INSERT INTO table [(cols)] VALUES (...), (...) or
// INSERT INTO table [(cols)] SELECT ....
type Insert struct {
	Table   string
	Columns []string
	Rows    [][]Expr
	// Query is set for the INSERT ... SELECT form (Rows is then empty).
	Query *Select
}

// Update is UPDATE table SET col=expr,... [WHERE expr].
type Update struct {
	Table string
	Set   []Assignment
	Where Expr
}

// Assignment is one SET clause element.
type Assignment struct {
	Column string
	Value  Expr
}

// Delete is DELETE FROM table [WHERE expr].
type Delete struct {
	Table string
	Where Expr
}

func (*Insert) stmt() {}
func (*Update) stmt() {}
func (*Delete) stmt() {}

// --- SELECT ---

// Select is a full SELECT statement.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    Expr // nil = no limit
	Offset   Expr // nil = no offset
}

func (*Select) stmt() {}

// SelectItem is one projection: expression with optional alias, or a star.
type SelectItem struct {
	// Star is SELECT * (Qualifier empty) or alias.* (Qualifier set).
	Star      bool
	Qualifier string
	Expr      Expr
	Alias     string
}

// TableRef is a table in FROM with joins chained onto it.
type TableRef struct {
	Table string
	Alias string
	Joins []Join
}

// JoinKind discriminates join types.
type JoinKind int

// Join kinds.
const (
	JoinInner JoinKind = iota
	JoinLeft
	JoinCross
)

// Join is one JOIN clause attached to a TableRef.
type Join struct {
	Kind  JoinKind
	Table string
	Alias string
	On    Expr
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// --- Expressions ---

// Expr is a SQL expression node.
type Expr interface {
	expr()
	// SQL renders the expression back to parseable SQL text. The SESQL
	// pipeline uses this when generating the final query of Fig. 6.
	SQL() string
}

// Literal is a constant value.
type Literal struct{ Val sqlval.Value }

// ColRef references a column, optionally qualified by table/alias.
type ColRef struct {
	Qualifier string
	Name      string
}

// BinOpKind enumerates binary operators.
type BinOpKind int

// Binary operators.
const (
	OpEq BinOpKind = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpAnd
	OpOr
	OpConcat
	OpLike
)

func (o BinOpKind) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	case OpConcat:
		return "||"
	case OpLike:
		return "LIKE"
	default:
		return "?"
	}
}

// BinExpr is a binary operation.
type BinExpr struct {
	Op   BinOpKind
	L, R Expr
}

// UnaryExpr is NOT e or -e.
type UnaryExpr struct {
	Op string // "NOT" or "-"
	E  Expr
}

// IsNull is e IS [NOT] NULL.
type IsNull struct {
	E   Expr
	Not bool
}

// InList is e [NOT] IN (e1, e2, ...).
type InList struct {
	E    Expr
	Not  bool
	List []Expr
}

// Between is e [NOT] BETWEEN lo AND hi.
type Between struct {
	E      Expr
	Not    bool
	Lo, Hi Expr
}

// FuncCall is a scalar or aggregate function call.
type FuncCall struct {
	Name     string // upper-cased
	Star     bool   // COUNT(*)
	Distinct bool   // COUNT(DISTINCT x)
	Args     []Expr
}

// CaseExpr is CASE [operand] WHEN .. THEN .. [ELSE ..] END.
type CaseExpr struct {
	Operand Expr // nil for searched CASE
	Whens   []WhenClause
	Else    Expr
}

// WhenClause is one WHEN/THEN pair.
type WhenClause struct {
	Cond Expr
	Then Expr
}

func (*Literal) expr()   {}
func (*ColRef) expr()    {}
func (*BinExpr) expr()   {}
func (*UnaryExpr) expr() {}
func (*IsNull) expr()    {}
func (*InList) expr()    {}
func (*Between) expr()   {}
func (*FuncCall) expr()  {}
func (*CaseExpr) expr()  {}

// SQL implementations.

// SQL renders the literal.
func (e *Literal) SQL() string { return e.Val.SQLLiteral() }

// SQL renders the column reference.
func (e *ColRef) SQL() string {
	if e.Qualifier != "" {
		return quoteIdent(e.Qualifier) + "." + quoteIdent(e.Name)
	}
	return quoteIdent(e.Name)
}

// quoteIdent renders a name as the lexer reads it back: bare when it lexes
// as a plain identifier that is not a keyword, else in double quotes.
func quoteIdent(name string) string {
	plain := name != "" && !reserved[strings.ToUpper(name)]
	for i, r := range name {
		if !unicode.IsLetter(r) && r != '_' && (i == 0 || !unicode.IsDigit(r)) {
			plain = false
			break
		}
	}
	if plain {
		return name
	}
	return `"` + name + `"`
}

// SQL renders the binary expression fully parenthesised.
func (e *BinExpr) SQL() string {
	return "(" + e.L.SQL() + " " + e.Op.String() + " " + e.R.SQL() + ")"
}

// SQL renders the unary expression.
func (e *UnaryExpr) SQL() string {
	if e.Op == "NOT" {
		return "(NOT " + e.E.SQL() + ")"
	}
	return "(" + e.Op + e.E.SQL() + ")"
}

// SQL renders IS [NOT] NULL.
func (e *IsNull) SQL() string {
	if e.Not {
		return "(" + e.E.SQL() + " IS NOT NULL)"
	}
	return "(" + e.E.SQL() + " IS NULL)"
}

// SQL renders [NOT] IN.
func (e *InList) SQL() string {
	parts := make([]string, len(e.List))
	for i, x := range e.List {
		parts[i] = x.SQL()
	}
	not := ""
	if e.Not {
		not = " NOT"
	}
	return "(" + e.E.SQL() + not + " IN (" + strings.Join(parts, ", ") + "))"
}

// SQL renders [NOT] BETWEEN.
func (e *Between) SQL() string {
	not := ""
	if e.Not {
		not = " NOT"
	}
	return "(" + e.E.SQL() + not + " BETWEEN " + e.Lo.SQL() + " AND " + e.Hi.SQL() + ")"
}

// SQL renders the function call.
func (e *FuncCall) SQL() string {
	if e.Star {
		return quoteIdent(e.Name) + "(*)"
	}
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.SQL()
	}
	d := ""
	if e.Distinct {
		d = "DISTINCT "
	}
	return quoteIdent(e.Name) + "(" + d + strings.Join(parts, ", ") + ")"
}

// SQL renders the CASE expression.
func (e *CaseExpr) SQL() string {
	var b strings.Builder
	b.WriteString("CASE")
	if e.Operand != nil {
		b.WriteString(" " + e.Operand.SQL())
	}
	for _, w := range e.Whens {
		b.WriteString(" WHEN " + w.Cond.SQL() + " THEN " + w.Then.SQL())
	}
	if e.Else != nil {
		b.WriteString(" ELSE " + e.Else.SQL())
	}
	b.WriteString(" END")
	return b.String()
}

// SelectSQL renders a Select back to SQL text. Round-trips through Parse.
func SelectSQL(s *Select) string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		switch {
		case it.Star && it.Qualifier != "":
			b.WriteString(it.Qualifier + ".*")
		case it.Star:
			b.WriteString("*")
		default:
			b.WriteString(it.Expr.SQL())
			if it.Alias != "" {
				b.WriteString(" AS " + it.Alias)
			}
		}
	}
	if len(s.From) > 0 {
		b.WriteString(" FROM ")
		for i, tr := range s.From {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(tr.Table)
			if tr.Alias != "" {
				b.WriteString(" AS " + tr.Alias)
			}
			for _, j := range tr.Joins {
				switch j.Kind {
				case JoinLeft:
					b.WriteString(" LEFT JOIN ")
				case JoinCross:
					b.WriteString(" CROSS JOIN ")
				default:
					b.WriteString(" JOIN ")
				}
				b.WriteString(j.Table)
				if j.Alias != "" {
					b.WriteString(" AS " + j.Alias)
				}
				if j.On != nil {
					b.WriteString(" ON " + j.On.SQL())
				}
			}
		}
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.SQL())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.SQL())
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING " + s.Having.SQL())
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.Expr.SQL())
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if s.Limit != nil {
		b.WriteString(" LIMIT " + s.Limit.SQL())
	}
	if s.Offset != nil {
		b.WriteString(" OFFSET " + s.Offset.SQL())
	}
	return b.String()
}
