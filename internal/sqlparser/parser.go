package sqlparser

import (
	"fmt"
	"strconv"
	"strings"

	"crosse/internal/sqlval"
)

// Parse parses a single SQL statement (a trailing semicolon is allowed).
func Parse(src string) (Statement, error) { return parse(src, false) }

func parse(src string, params bool) (Statement, error) {
	p, err := newParser(src, params)
	if err != nil {
		return nil, err
	}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	p.eat(";")
	if p.tok.Kind != TEOF {
		return nil, fmt.Errorf("sql: unexpected %s after statement", p.tok)
	}
	return st, nil
}

// ParseSelect parses a statement and requires it to be a SELECT.
func ParseSelect(src string) (*Select, error) { return parseSelect(src, false) }

// ParseSelectTemplate is ParseSelect over a query shape: every ?N:type
// marker parses as a *Param where ParseSelect would have parsed the literal
// it stands for.
func ParseSelectTemplate(src string) (*Select, error) { return parseSelect(src, true) }

func parseSelect(src string, params bool) (*Select, error) {
	st, err := parse(src, params)
	if err != nil {
		return nil, err
	}
	s, ok := st.(*Select)
	if !ok {
		return nil, fmt.Errorf("sql: expected a SELECT statement")
	}
	return s, nil
}

// ParseExpr parses a standalone expression (used by the SESQL condition
// scanner to validate tagged conditions).
func ParseExpr(src string) (Expr, error) { return parseExpr(src, false) }

// ParseExprTemplate is ParseExpr over a query shape (see
// ParseSelectTemplate).
func ParseExprTemplate(src string) (Expr, error) { return parseExpr(src, true) }

func parseExpr(src string, params bool) (Expr, error) {
	p, err := newParser(src, params)
	if err != nil {
		return nil, err
	}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind != TEOF {
		return nil, fmt.Errorf("sql: unexpected %s after expression", p.tok)
	}
	return e, nil
}

type parser struct {
	lex  *Lexer
	tok  Token // current
	peek *Token
}

func newParser(src string, params bool) (*parser, error) {
	p := &parser{lex: &Lexer{in: src, params: params}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *parser) advance() error {
	if p.peek != nil {
		p.tok = *p.peek
		p.peek = nil
		return nil
	}
	t, err := p.lex.Next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) peekTok() (Token, error) {
	if p.peek == nil {
		t, err := p.lex.Next()
		if err != nil {
			return Token{}, err
		}
		p.peek = &t
	}
	return *p.peek, nil
}

// kw reports whether the current token is the keyword (case-insensitive).
// Quoted identifiers are never keywords.
func (p *parser) kw(word string) bool {
	return p.tok.Kind == TIdent && !p.tok.Quoted && strings.EqualFold(p.tok.Text, word)
}

// eat consumes the token if it matches the keyword or punctuation and
// reports whether it did.
func (p *parser) eat(s string) bool {
	match := false
	if p.tok.Kind == TPunct && p.tok.Text == s {
		match = true
	}
	if p.tok.Kind == TIdent && strings.EqualFold(p.tok.Text, s) {
		match = true
	}
	if match {
		if err := p.advance(); err != nil {
			// Error surfaces at the next expect.
			p.tok = Token{Kind: TEOF}
		}
	}
	return match
}

func (p *parser) expectKw(word string) error {
	if !p.kw(word) {
		return fmt.Errorf("sql: expected %s, got %s", strings.ToUpper(word), p.tok)
	}
	return p.advance()
}

func (p *parser) expectPunct(s string) error {
	if p.tok.Kind != TPunct || p.tok.Text != s {
		return fmt.Errorf("sql: expected %q, got %s", s, p.tok)
	}
	return p.advance()
}

func (p *parser) ident() (string, error) {
	if p.tok.Kind != TIdent {
		return "", fmt.Errorf("sql: expected identifier, got %s", p.tok)
	}
	name := p.tok.Text
	if !p.tok.Quoted && reserved[strings.ToUpper(name)] {
		return "", fmt.Errorf("sql: unexpected keyword %s", p.tok)
	}
	return name, p.advance()
}

// reserved words that cannot be bare identifiers (so `FROM t WHERE` parses).
var reserved = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "HAVING": true,
	"ORDER": true, "LIMIT": true, "OFFSET": true, "JOIN": true, "LEFT": true,
	"INNER": true, "CROSS": true, "ON": true, "AND": true, "OR": true,
	"NOT": true, "AS": true, "BY": true, "DISTINCT": true, "INSERT": true,
	"UPDATE": true, "DELETE": true, "CREATE": true, "DROP": true, "TABLE": true,
	"INDEX": true, "VALUES": true, "SET": true, "INTO": true, "NULL": true,
	"IS": true, "IN": true, "BETWEEN": true, "LIKE": true, "CASE": true,
	"WHEN": true, "THEN": true, "ELSE": true, "END": true, "ASC": true,
	"DESC": true, "UNION": true, "TRUE": true, "FALSE": true, "EXISTS": true,
	"IF": true, "PRIMARY": true, "KEY": true, "ENRICH": true,
}

func (p *parser) statement() (Statement, error) {
	switch {
	case p.kw("SELECT"):
		return p.selectStmt()
	case p.kw("CREATE"):
		return p.createStmt()
	case p.kw("DROP"):
		return p.dropStmt()
	case p.kw("INSERT"):
		return p.insertStmt()
	case p.kw("UPDATE"):
		return p.updateStmt()
	case p.kw("DELETE"):
		return p.deleteStmt()
	default:
		return nil, fmt.Errorf("sql: expected statement, got %s", p.tok)
	}
}

func (p *parser) createStmt() (Statement, error) {
	if err := p.advance(); err != nil { // CREATE
		return nil, err
	}
	switch {
	case p.kw("TABLE"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		ct := &CreateTable{}
		if p.kw("IF") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expectKw("NOT"); err != nil {
				return nil, err
			}
			if !p.kw("EXISTS") {
				return nil, fmt.Errorf("sql: expected EXISTS, got %s", p.tok)
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			ct.IfNotExists = true
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		ct.Name = name
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		for {
			col, err := p.columnDef()
			if err != nil {
				return nil, err
			}
			ct.Columns = append(ct.Columns, col)
			if p.eat(",") {
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return ct, nil
	case p.kw("INDEX"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("ON"); err != nil {
			return nil, err
		}
		table, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return &CreateIndex{Name: name, Table: table, Column: col}, nil
	default:
		return nil, fmt.Errorf("sql: expected TABLE or INDEX after CREATE, got %s", p.tok)
	}
}

func (p *parser) columnDef() (ColumnDef, error) {
	name, err := p.ident()
	if err != nil {
		return ColumnDef{}, err
	}
	if p.tok.Kind != TIdent {
		return ColumnDef{}, fmt.Errorf("sql: expected type for column %s, got %s", name, p.tok)
	}
	typ, err := sqlval.ParseType(p.tok.Text)
	if err != nil {
		return ColumnDef{}, err
	}
	if err := p.advance(); err != nil {
		return ColumnDef{}, err
	}
	// Optional length like VARCHAR(64): parse and ignore.
	if p.tok.Kind == TPunct && p.tok.Text == "(" {
		if err := p.advance(); err != nil {
			return ColumnDef{}, err
		}
		if p.tok.Kind != TNumber {
			return ColumnDef{}, fmt.Errorf("sql: expected length, got %s", p.tok)
		}
		if err := p.advance(); err != nil {
			return ColumnDef{}, err
		}
		if err := p.expectPunct(")"); err != nil {
			return ColumnDef{}, err
		}
	}
	col := ColumnDef{Name: name, Type: typ}
	for {
		switch {
		case p.kw("NOT"):
			if err := p.advance(); err != nil {
				return ColumnDef{}, err
			}
			if !p.kw("NULL") {
				return ColumnDef{}, fmt.Errorf("sql: expected NULL after NOT, got %s", p.tok)
			}
			if err := p.advance(); err != nil {
				return ColumnDef{}, err
			}
			col.NotNull = true
		case p.kw("PRIMARY"):
			if err := p.advance(); err != nil {
				return ColumnDef{}, err
			}
			if !p.kw("KEY") {
				return ColumnDef{}, fmt.Errorf("sql: expected KEY after PRIMARY, got %s", p.tok)
			}
			if err := p.advance(); err != nil {
				return ColumnDef{}, err
			}
			col.PrimaryKey = true
			col.NotNull = true
		default:
			return col, nil
		}
	}
}

func (p *parser) dropStmt() (Statement, error) {
	if err := p.advance(); err != nil { // DROP
		return nil, err
	}
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	dt := &DropTable{}
	if p.kw("IF") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if !p.kw("EXISTS") {
			return nil, fmt.Errorf("sql: expected EXISTS, got %s", p.tok)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		dt.IfExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	dt.Name = name
	return dt, nil
}

func (p *parser) insertStmt() (Statement, error) {
	if err := p.advance(); err != nil { // INSERT
		return nil, err
	}
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: table}
	if p.tok.Kind == TPunct && p.tok.Text == "(" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, col)
			if p.eat(",") {
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	if p.kw("SELECT") {
		sel, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		ins.Query = sel
		return ins, nil
	}
	if !p.kw("VALUES") {
		return nil, fmt.Errorf("sql: expected VALUES or SELECT, got %s", p.tok)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	for {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.eat(",") {
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if p.eat(",") {
			continue
		}
		break
	}
	return ins, nil
}

func (p *parser) updateStmt() (Statement, error) {
	if err := p.advance(); err != nil { // UPDATE
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	up := &Update{Table: table}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		val, err := p.expr()
		if err != nil {
			return nil, err
		}
		up.Set = append(up.Set, Assignment{Column: col, Value: val})
		if p.eat(",") {
			continue
		}
		break
	}
	if p.kw("WHERE") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		up.Where = w
	}
	return up, nil
}

func (p *parser) deleteStmt() (Statement, error) {
	if err := p.advance(); err != nil { // DELETE
		return nil, err
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	del := &Delete{Table: table}
	if p.kw("WHERE") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		del.Where = w
	}
	return del, nil
}

func (p *parser) selectStmt() (*Select, error) {
	if err := p.advance(); err != nil { // SELECT
		return nil, err
	}
	sel := &Select{}
	if p.kw("DISTINCT") {
		sel.Distinct = true
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if p.eat(",") {
			continue
		}
		break
	}
	if p.kw("FROM") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		for {
			tr, err := p.tableRef()
			if err != nil {
				return nil, err
			}
			sel.From = append(sel.From, tr)
			if p.eat(",") {
				continue
			}
			break
		}
	}
	if p.kw("WHERE") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.kw("GROUP") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			g, err := p.expr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, g)
			if p.eat(",") {
				continue
			}
			break
		}
	}
	if p.kw("HAVING") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		h, err := p.expr()
		if err != nil {
			return nil, err
		}
		sel.Having = h
	}
	if p.kw("ORDER") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.kw("DESC") {
				item.Desc = true
				if err := p.advance(); err != nil {
					return nil, err
				}
			} else if p.kw("ASC") {
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if p.eat(",") {
				continue
			}
			break
		}
	}
	if p.kw("LIMIT") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		sel.Limit = e
	}
	if p.kw("OFFSET") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		sel.Offset = e
	}
	return sel, nil
}

func (p *parser) selectItem() (SelectItem, error) {
	// '*'
	if p.tok.Kind == TPunct && p.tok.Text == "*" {
		if err := p.advance(); err != nil {
			return SelectItem{}, err
		}
		return SelectItem{Star: true}, nil
	}
	// 'alias.*'
	if p.tok.Kind == TIdent && !reserved[strings.ToUpper(p.tok.Text)] {
		nxt, err := p.peekTok()
		if err != nil {
			return SelectItem{}, err
		}
		if nxt.Kind == TPunct && nxt.Text == "." {
			// Need a third token: save state by re-lexing is complex; peek
			// only gives one token, so parse the qualified form via expr
			// unless the token after '.' is '*'. We detect that by lexing
			// a throwaway lexer from the '.' position.
			save := *p.lex
			if p.peek == nil {
				return SelectItem{}, fmt.Errorf("sql: internal peek state")
			}
			third, lerr := save.Next()
			if lerr == nil && third.Kind == TPunct && third.Text == "*" {
				qual := p.tok.Text
				// consume ident, '.', '*'
				if err := p.advance(); err != nil {
					return SelectItem{}, err
				}
				if err := p.advance(); err != nil {
					return SelectItem{}, err
				}
				if err := p.advance(); err != nil {
					return SelectItem{}, err
				}
				return SelectItem{Star: true, Qualifier: qual}, nil
			}
		}
	}
	e, err := p.expr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.kw("AS") {
		if err := p.advance(); err != nil {
			return SelectItem{}, err
		}
		alias, err := p.ident()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if p.tok.Kind == TIdent && !reserved[strings.ToUpper(p.tok.Text)] {
		// bare alias
		item.Alias = p.tok.Text
		if err := p.advance(); err != nil {
			return SelectItem{}, err
		}
	}
	return item, nil
}

func (p *parser) tableRef() (TableRef, error) {
	name, err := p.ident()
	if err != nil {
		return TableRef{}, err
	}
	tr := TableRef{Table: name}
	tr.Alias, err = p.maybeAlias()
	if err != nil {
		return TableRef{}, err
	}
	for {
		var kind JoinKind
		switch {
		case p.kw("JOIN") || p.kw("INNER"):
			kind = JoinInner
			if p.kw("INNER") {
				if err := p.advance(); err != nil {
					return TableRef{}, err
				}
			}
			if err := p.expectKw("JOIN"); err != nil {
				return TableRef{}, err
			}
		case p.kw("LEFT"):
			kind = JoinLeft
			if err := p.advance(); err != nil {
				return TableRef{}, err
			}
			p.eat("OUTER")
			if err := p.expectKw("JOIN"); err != nil {
				return TableRef{}, err
			}
		case p.kw("CROSS"):
			kind = JoinCross
			if err := p.advance(); err != nil {
				return TableRef{}, err
			}
			if err := p.expectKw("JOIN"); err != nil {
				return TableRef{}, err
			}
		default:
			return tr, nil
		}
		jt, err := p.ident()
		if err != nil {
			return TableRef{}, err
		}
		j := Join{Kind: kind, Table: jt}
		j.Alias, err = p.maybeAlias()
		if err != nil {
			return TableRef{}, err
		}
		if kind != JoinCross {
			if err := p.expectKw("ON"); err != nil {
				return TableRef{}, err
			}
			on, err := p.expr()
			if err != nil {
				return TableRef{}, err
			}
			j.On = on
		}
		tr.Joins = append(tr.Joins, j)
	}
}

func (p *parser) maybeAlias() (string, error) {
	if p.kw("AS") {
		if err := p.advance(); err != nil {
			return "", err
		}
		return p.ident()
	}
	if p.tok.Kind == TIdent && !reserved[strings.ToUpper(p.tok.Text)] {
		a := p.tok.Text
		return a, p.advance()
	}
	return "", nil
}

// --- expressions, precedence climbing ---
// OR < AND < NOT < comparison/IS/IN/BETWEEN/LIKE < additive/|| < multiplicative < unary

func (p *parser) expr() (Expr, error) { return p.exprOr() }

func (p *parser) exprOr() (Expr, error) {
	left, err := p.exprAnd()
	if err != nil {
		return nil, err
	}
	for p.kw("OR") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.exprAnd()
		if err != nil {
			return nil, err
		}
		left = &BinExpr{Op: OpOr, L: left, R: right}
	}
	return left, nil
}

func (p *parser) exprAnd() (Expr, error) {
	left, err := p.exprNot()
	if err != nil {
		return nil, err
	}
	for p.kw("AND") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.exprNot()
		if err != nil {
			return nil, err
		}
		left = &BinExpr{Op: OpAnd, L: left, R: right}
	}
	return left, nil
}

func (p *parser) exprNot() (Expr, error) {
	if p.kw("NOT") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		inner, err := p.exprNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", E: inner}, nil
	}
	return p.exprCmp()
}

func (p *parser) exprCmp() (Expr, error) {
	left, err := p.exprAdd()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.tok.Kind == TPunct:
			var op BinOpKind
			switch p.tok.Text {
			case "=":
				op = OpEq
			case "<>", "!=":
				op = OpNe
			case "<":
				op = OpLt
			case "<=":
				op = OpLe
			case ">":
				op = OpGt
			case ">=":
				op = OpGe
			default:
				return left, nil
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			right, err := p.exprAdd()
			if err != nil {
				return nil, err
			}
			left = &BinExpr{Op: op, L: left, R: right}
		case p.kw("IS"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			not := false
			if p.kw("NOT") {
				not = true
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			if !p.kw("NULL") {
				return nil, fmt.Errorf("sql: expected NULL after IS, got %s", p.tok)
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			left = &IsNull{E: left, Not: not}
		case p.kw("IN"), p.kw("BETWEEN"), p.kw("LIKE"), p.kw("NOT"):
			not := false
			if p.kw("NOT") {
				nxt, err := p.peekTok()
				if err != nil {
					return nil, err
				}
				up := strings.ToUpper(nxt.Text)
				if nxt.Kind != TIdent || (up != "IN" && up != "BETWEEN" && up != "LIKE") {
					return left, nil
				}
				not = true
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			switch {
			case p.kw("IN"):
				if err := p.advance(); err != nil {
					return nil, err
				}
				if err := p.expectPunct("("); err != nil {
					return nil, err
				}
				var list []Expr
				if !(p.tok.Kind == TPunct && p.tok.Text == ")") {
					for {
						e, err := p.expr()
						if err != nil {
							return nil, err
						}
						list = append(list, e)
						if p.eat(",") {
							continue
						}
						break
					}
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
				left = &InList{E: left, Not: not, List: list}
			case p.kw("BETWEEN"):
				if err := p.advance(); err != nil {
					return nil, err
				}
				lo, err := p.exprAdd()
				if err != nil {
					return nil, err
				}
				if err := p.expectKw("AND"); err != nil {
					return nil, err
				}
				hi, err := p.exprAdd()
				if err != nil {
					return nil, err
				}
				left = &Between{E: left, Not: not, Lo: lo, Hi: hi}
			case p.kw("LIKE"):
				if err := p.advance(); err != nil {
					return nil, err
				}
				pat, err := p.exprAdd()
				if err != nil {
					return nil, err
				}
				var e Expr = &BinExpr{Op: OpLike, L: left, R: pat}
				if not {
					e = &UnaryExpr{Op: "NOT", E: e}
				}
				left = e
			default:
				return left, nil
			}
		default:
			return left, nil
		}
	}
}

func (p *parser) exprAdd() (Expr, error) {
	left, err := p.exprMul()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == TPunct && (p.tok.Text == "+" || p.tok.Text == "-" || p.tok.Text == "||") {
		var op BinOpKind
		switch p.tok.Text {
		case "+":
			op = OpAdd
		case "-":
			op = OpSub
		default:
			op = OpConcat
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.exprMul()
		if err != nil {
			return nil, err
		}
		left = &BinExpr{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) exprMul() (Expr, error) {
	left, err := p.exprUnary()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == TPunct && (p.tok.Text == "*" || p.tok.Text == "/" || p.tok.Text == "%") {
		var op BinOpKind
		switch p.tok.Text {
		case "*":
			op = OpMul
		case "/":
			op = OpDiv
		default:
			op = OpMod
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.exprUnary()
		if err != nil {
			return nil, err
		}
		left = &BinExpr{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) exprUnary() (Expr, error) {
	if p.tok.Kind == TPunct && p.tok.Text == "-" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		inner, err := p.exprUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", E: inner}, nil
	}
	return p.exprPrimary()
}

func (p *parser) exprPrimary() (Expr, error) {
	switch {
	case p.tok.Kind == TNumber:
		text := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		v, err := NumberValue(text)
		if err != nil {
			return nil, err
		}
		return &Literal{Val: v}, nil
	case p.tok.Kind == TParam:
		_, idx, typ, _ := scanParam(p.tok.Text)
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Param{Index: idx, Type: typ}, nil
	case p.tok.Kind == TString:
		s := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Literal{Val: sqlval.NewString(s)}, nil
	case p.tok.Kind == TPunct && p.tok.Text == "(":
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	case p.kw("NULL"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Literal{Val: sqlval.Null}, nil
	case p.kw("TRUE"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Literal{Val: sqlval.NewBool(true)}, nil
	case p.kw("FALSE"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Literal{Val: sqlval.NewBool(false)}, nil
	case p.kw("CASE"):
		return p.caseExpr()
	case p.tok.Kind == TIdent:
		name := p.tok.Text
		if !p.tok.Quoted && reserved[strings.ToUpper(name)] {
			return nil, fmt.Errorf("sql: unexpected keyword %s in expression", p.tok)
		}
		nxt, err := p.peekTok()
		if err != nil {
			return nil, err
		}
		// Function call.
		if nxt.Kind == TPunct && nxt.Text == "(" {
			if err := p.advance(); err != nil { // name
				return nil, err
			}
			if err := p.advance(); err != nil { // (
				return nil, err
			}
			fc := &FuncCall{Name: strings.ToUpper(name)}
			if p.tok.Kind == TPunct && p.tok.Text == "*" {
				fc.Star = true
				if err := p.advance(); err != nil {
					return nil, err
				}
			} else if !(p.tok.Kind == TPunct && p.tok.Text == ")") {
				if p.kw("DISTINCT") {
					fc.Distinct = true
					if err := p.advance(); err != nil {
						return nil, err
					}
				}
				for {
					a, err := p.expr()
					if err != nil {
						return nil, err
					}
					fc.Args = append(fc.Args, a)
					if p.eat(",") {
						continue
					}
					break
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return fc, nil
		}
		// Qualified column: name.col
		if nxt.Kind == TPunct && nxt.Text == "." {
			if err := p.advance(); err != nil { // name
				return nil, err
			}
			if err := p.advance(); err != nil { // .
				return nil, err
			}
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ColRef{Qualifier: name, Name: col}, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &ColRef{Name: name}, nil
	default:
		return nil, fmt.Errorf("sql: expected expression, got %s", p.tok)
	}
}

// NumberValue converts a number token's text to its literal value: a float
// when it has a fraction or an exponent, an integer otherwise.
func NumberValue(text string) (sqlval.Value, error) {
	if strings.ContainsAny(text, ".eE") {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return sqlval.Null, fmt.Errorf("sql: bad number %q", text)
		}
		return sqlval.NewFloat(f), nil
	}
	i, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return sqlval.Null, fmt.Errorf("sql: bad number %q", text)
	}
	return sqlval.NewInt(i), nil
}

func (p *parser) caseExpr() (Expr, error) {
	if err := p.advance(); err != nil { // CASE
		return nil, err
	}
	ce := &CaseExpr{}
	if !p.kw("WHEN") {
		op, err := p.expr()
		if err != nil {
			return nil, err
		}
		ce.Operand = op
	}
	for p.kw("WHEN") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("THEN"); err != nil {
			return nil, err
		}
		then, err := p.expr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, WhenClause{Cond: cond, Then: then})
	}
	if len(ce.Whens) == 0 {
		return nil, fmt.Errorf("sql: CASE requires at least one WHEN")
	}
	if p.kw("ELSE") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	if !p.kw("END") {
		return nil, fmt.Errorf("sql: expected END, got %s", p.tok)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return ce, nil
}
