package sqlstore

import (
	"fmt"
	"strconv"
	"strings"
)

// --- AST ---

// Statement is a parsed SQL statement.
type Statement interface{ stmt() }

// ColumnDef is one column in a CREATE TABLE.
type ColumnDef struct {
	Name string
	Type Type
}

// CreateTable is CREATE TABLE name (col type, ...).
type CreateTable struct {
	Table   string
	Columns []ColumnDef
}

// Insert is INSERT INTO name VALUES (...), (...): every row in table
// column order.
type Insert struct {
	Table string
	Rows  [][]Value
}

// Select is SELECT cols|* FROM name [WHERE] [ORDER BY] [LIMIT].
type Select struct {
	Table string
	// Columns is the projection list; empty means *.
	Columns []string
	Where   Where
	OrderBy string // empty means unordered
	Desc    bool
	Limit   int // -1 means no limit
}

// Update is UPDATE name SET col=val,... [WHERE].
type Update struct {
	Table string
	Set   []Assignment
	Where Where
}

// Assignment is one col=value pair in UPDATE ... SET.
type Assignment struct {
	Column string
	Value  Value
}

func (CreateTable) stmt() {}
func (Insert) stmt()      {}
func (Select) stmt()      {}
func (Update) stmt()      {}

// Where is a WHERE clause: comparisons joined by AND. Empty matches every
// row.
type Where []comparison

// matches evaluates the conjunction left to right, stopping at the first
// comparison that is false or fails, like every SQL engine does.
func (w Where) matches(cols map[string]int, row []Value) (bool, error) {
	for _, c := range w {
		ok, err := c.eval(cols, row)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// operand is either a column reference or a literal.
type operand struct {
	column  string // set when isCol
	isCol   bool
	literal Value
}

func (o operand) value(cols map[string]int, row []Value) (Value, error) {
	if !o.isCol {
		return o.literal, nil
	}
	idx, ok := cols[strings.ToLower(o.column)]
	if !ok {
		return nil, fmt.Errorf("sqlstore: unknown column %q", o.column)
	}
	return row[idx], nil
}

type comparison struct {
	op   string // = != < <= > >=
	l, r operand
}

func (c comparison) eval(cols map[string]int, row []Value) (bool, error) {
	lv, err := c.l.value(cols, row)
	if err != nil {
		return false, err
	}
	rv, err := c.r.value(cols, row)
	if err != nil {
		return false, err
	}
	// SQL three-valued logic collapsed to false: NULL compares false.
	if lv == nil || rv == nil {
		return false, nil
	}
	cmp, err := compare(lv, rv)
	if err != nil {
		return false, err
	}
	switch c.op {
	case "=":
		return cmp == 0, nil
	case "!=":
		return cmp != 0, nil
	case "<":
		return cmp < 0, nil
	case "<=":
		return cmp <= 0, nil
	case ">":
		return cmp > 0, nil
	case ">=":
		return cmp >= 0, nil
	default:
		return false, fmt.Errorf("sqlstore: unknown operator %q", c.op)
	}
}

// --- Parser ---

type parser struct {
	toks []token
	pos  int
}

// maxStatementLen bounds what Parse will lex. The longest statement the
// suite runs is its fixture's 200-row INSERT, about 10 KB; a frame may
// carry 64 MiB, and the lexer's tokens take several times a statement's
// size.
const maxStatementLen = 1 << 20

// Parse parses one SQL statement (an optional trailing ';' is allowed).
// The grammar has no nesting — WHERE is a flat AND-list — so parsing is
// loops over the token slice, never recursion on the input.
func Parse(src string) (Statement, error) {
	if len(src) > maxStatementLen {
		return nil, fmt.Errorf("sqlstore: statement of %d bytes exceeds %d limit", len(src), maxStatementLen)
	}
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	p.accept(tokSymbol, ";")
	if !p.at(tokEOF, "") {
		return nil, p.errHere("unexpected trailing input")
	}
	return st, nil
}

func (p *parser) cur() token { return p.toks[p.pos] }

func (p *parser) errHere(msg string) error {
	t := p.cur()
	what := t.text
	if t.kind == tokEOF {
		what = "end of input"
	}
	return fmt.Errorf("sqlstore: parse error near %q: %s", what, msg)
}

// at reports whether the current token matches kind (and text for symbols /
// case-insensitive keywords when text != "").
func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	if t.kind != kind {
		return false
	}
	if text == "" {
		return true
	}
	if kind == tokIdent {
		return strings.EqualFold(t.text, text)
	}
	return t.text == text
}

// accept consumes the current token when it matches.
func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

// expect consumes a required token or errors.
func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if !p.at(kind, text) {
		want := text
		if want == "" {
			want = map[tokenKind]string{tokIdent: "identifier", tokNumber: "number", tokString: "string"}[kind]
		}
		return token{}, p.errHere(fmt.Sprintf("expected %s", want))
	}
	t := p.cur()
	p.pos++
	return t, nil
}

func (p *parser) ident() (string, error) {
	t, err := p.expect(tokIdent, "")
	if err != nil {
		return "", err
	}
	return t.text, nil
}

func (p *parser) statement() (Statement, error) {
	switch {
	case p.accept(tokIdent, "CREATE"):
		return p.createTable()
	case p.accept(tokIdent, "INSERT"):
		return p.insert()
	case p.accept(tokIdent, "SELECT"):
		return p.selectStmt()
	case p.accept(tokIdent, "UPDATE"):
		return p.update()
	default:
		return nil, p.errHere("expected CREATE, INSERT, SELECT, or UPDATE")
	}
}

func (p *parser) createTable() (Statement, error) {
	if _, err := p.expect(tokIdent, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	var cols []ColumnDef
	for {
		colName, err := p.ident()
		if err != nil {
			return nil, err
		}
		typeName, err := p.ident()
		if err != nil {
			return nil, err
		}
		var typ Type
		switch strings.ToUpper(typeName) {
		case "INT", "INTEGER", "BIGINT":
			typ = IntType
		case "FLOAT", "REAL", "DOUBLE":
			typ = FloatType
		case "TEXT", "VARCHAR", "CHAR":
			typ = TextType
		default:
			return nil, fmt.Errorf("sqlstore: unknown column type %q", typeName)
		}
		// Tolerate a length suffix like VARCHAR(255).
		if p.accept(tokSymbol, "(") {
			if _, err := p.expect(tokNumber, ""); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
		}
		cols = append(cols, ColumnDef{Name: colName, Type: typ})
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return CreateTable{Table: name, Columns: cols}, nil
}

func (p *parser) insert() (Statement, error) {
	if _, err := p.expect(tokIdent, "INTO"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokIdent, "VALUES"); err != nil {
		return nil, err
	}
	var rows [][]Value
	for {
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var row []Value
		for {
			v, err := p.literal()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		rows = append(rows, row)
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	return Insert{Table: name, Rows: rows}, nil
}

func (p *parser) selectStmt() (Statement, error) {
	sel := Select{Limit: -1}
	if !p.accept(tokSymbol, "*") {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			sel.Columns = append(sel.Columns, col)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
	}
	if _, err := p.expect(tokIdent, "FROM"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	sel.Table = name
	if sel.Where, err = p.where(); err != nil {
		return nil, err
	}
	if p.accept(tokIdent, "ORDER") {
		if _, err := p.expect(tokIdent, "BY"); err != nil {
			return nil, err
		}
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		sel.OrderBy = col
		if p.accept(tokIdent, "DESC") {
			sel.Desc = true
		} else {
			p.accept(tokIdent, "ASC")
		}
	}
	if p.accept(tokIdent, "LIMIT") {
		t, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, p.errHere("LIMIT must be a non-negative integer")
		}
		sel.Limit = n
	}
	return sel, nil
}

func (p *parser) update() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokIdent, "SET"); err != nil {
		return nil, err
	}
	var sets []Assignment
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, "="); err != nil {
			return nil, err
		}
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		sets = append(sets, Assignment{Column: col, Value: v})
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	w, err := p.where()
	if err != nil {
		return nil, err
	}
	return Update{Table: name, Set: sets, Where: w}, nil
}

// literal parses a number, string, NULL, TRUE, or FALSE (booleans stored
// as integers, the SQLite way).
func (p *parser) literal() (Value, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.pos++
		if strings.ContainsRune(t.text, '.') {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errHere("bad float literal")
			}
			return f, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errHere("bad integer literal")
		}
		return n, nil
	case t.kind == tokString:
		p.pos++
		return t.text, nil
	case p.accept(tokIdent, "NULL"):
		return nil, nil
	case p.accept(tokIdent, "TRUE"):
		return int64(1), nil
	case p.accept(tokIdent, "FALSE"):
		return int64(0), nil
	default:
		return nil, p.errHere("expected a literal value")
	}
}

// where parses an optional WHERE clause: comparison (AND comparison)*.
func (p *parser) where() (Where, error) {
	if !p.accept(tokIdent, "WHERE") {
		return nil, nil
	}
	var w Where
	for {
		c, err := p.comparison()
		if err != nil {
			return nil, err
		}
		w = append(w, c)
		if !p.accept(tokIdent, "AND") {
			return w, nil
		}
	}
}

var comparisonOps = map[string]bool{"=": true, "!=": true, "<": true, "<=": true, ">": true, ">=": true}

func (p *parser) comparison() (comparison, error) {
	left, err := p.operand()
	if err != nil {
		return comparison{}, err
	}
	t := p.cur()
	if t.kind != tokSymbol || !comparisonOps[t.text] {
		return comparison{}, p.errHere("expected comparison operator")
	}
	p.pos++
	right, err := p.operand()
	if err != nil {
		return comparison{}, err
	}
	return comparison{op: t.text, l: left, r: right}, nil
}

func (p *parser) operand() (operand, error) {
	t := p.cur()
	if t.kind == tokIdent && !isKeyword(t.text) {
		p.pos++
		return operand{isCol: true, column: t.text}, nil
	}
	v, err := p.literal()
	if err != nil {
		return operand{}, err
	}
	return operand{literal: v}, nil
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "INSERT": true, "INTO": true,
	"VALUES": true, "UPDATE": true, "SET": true, "CREATE": true, "TABLE": true,
	"AND": true, "NULL": true, "TRUE": true, "FALSE": true, "ORDER": true,
	"BY": true, "LIMIT": true, "ASC": true, "DESC": true,
}

func isKeyword(s string) bool { return keywords[strings.ToUpper(s)] }
