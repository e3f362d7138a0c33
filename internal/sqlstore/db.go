package sqlstore

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Database is a thread-safe in-memory collection of tables.
type Database struct {
	mu     sync.RWMutex
	tables map[string]*table
}

type table struct {
	cols   []ColumnDef
	colIdx map[string]int // lower-cased name -> index
	rows   [][]Value
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{tables: make(map[string]*table)}
}

// Result is the outcome of executing a statement.
type Result struct {
	// Columns is set for SELECT.
	Columns []string `json:"columns,omitempty"`
	// Rows is set for SELECT.
	Rows [][]Value `json:"rows,omitempty"`
	// Affected is the row count for INSERT/UPDATE.
	Affected int `json:"affected"`
}

// Exec parses and executes one SQL statement.
func (db *Database) Exec(query string) (*Result, error) {
	st, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return db.ExecStatement(st)
}

// ExecStatement executes a parsed statement.
func (db *Database) ExecStatement(st Statement) (*Result, error) {
	switch s := st.(type) {
	case CreateTable:
		return db.createTable(s)
	case Insert:
		return db.insert(s)
	case Select:
		return db.selectRows(s)
	case Update:
		return db.update(s)
	default:
		return nil, fmt.Errorf("sqlstore: unsupported statement %T", st)
	}
}

func (db *Database) createTable(s CreateTable) (*Result, error) {
	if len(s.Columns) == 0 {
		return nil, fmt.Errorf("sqlstore: table %q needs at least one column", s.Table)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(s.Table)
	if _, exists := db.tables[key]; exists {
		return nil, fmt.Errorf("sqlstore: table %q already exists", s.Table)
	}
	idx := make(map[string]int, len(s.Columns))
	for i, c := range s.Columns {
		lc := strings.ToLower(c.Name)
		if _, dup := idx[lc]; dup {
			return nil, fmt.Errorf("sqlstore: duplicate column %q", c.Name)
		}
		idx[lc] = i
	}
	db.tables[key] = &table{cols: s.Columns, colIdx: idx}
	return &Result{}, nil
}

func (db *Database) lookup(name string) (*table, error) {
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("sqlstore: no such table %q", name)
	}
	return t, nil
}

func (db *Database) insert(s Insert) (*Result, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, err := db.lookup(s.Table)
	if err != nil {
		return nil, err
	}
	inserted := make([][]Value, 0, len(s.Rows))
	for _, vals := range s.Rows {
		if len(vals) != len(t.cols) {
			return nil, fmt.Errorf("sqlstore: expected %d values, got %d", len(t.cols), len(vals))
		}
		row := make([]Value, len(t.cols))
		for i, v := range vals {
			cv, err := coerce(v, t.cols[i].Type)
			if err != nil {
				return nil, err
			}
			row[i] = cv
		}
		inserted = append(inserted, row)
	}
	t.rows = append(t.rows, inserted...)
	return &Result{Affected: len(inserted)}, nil
}

func (db *Database) selectRows(s Select) (*Result, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.lookup(s.Table)
	if err != nil {
		return nil, err
	}
	var matched [][]Value
	for _, row := range t.rows {
		ok, err := s.Where.matches(t.colIdx, row)
		if err != nil {
			return nil, err
		}
		if ok {
			matched = append(matched, row)
		}
	}
	if s.OrderBy != "" {
		idx, ok := t.colIdx[strings.ToLower(s.OrderBy)]
		if !ok {
			return nil, fmt.Errorf("sqlstore: no such column %q in ORDER BY", s.OrderBy)
		}
		var sortErr error
		sort.SliceStable(matched, func(i, j int) bool {
			a, b := matched[i][idx], matched[j][idx]
			// NULLs sort first (ascending).
			if a == nil || b == nil {
				less := a == nil && b != nil
				if s.Desc {
					return !less && a != b
				}
				return less
			}
			cmp, err := compare(a, b)
			if err != nil && sortErr == nil {
				sortErr = err
			}
			if s.Desc {
				return cmp > 0
			}
			return cmp < 0
		})
		if sortErr != nil {
			return nil, sortErr
		}
	}
	if s.Limit >= 0 && len(matched) > s.Limit {
		matched = matched[:s.Limit]
	}
	// Project columns.
	proj := make([]int, 0, len(t.cols))
	var names []string
	if len(s.Columns) == 0 {
		for i, c := range t.cols {
			proj = append(proj, i)
			names = append(names, c.Name)
		}
	} else {
		for _, col := range s.Columns {
			idx, ok := t.colIdx[strings.ToLower(col)]
			if !ok {
				return nil, fmt.Errorf("sqlstore: no such column %q", col)
			}
			proj = append(proj, idx)
			names = append(names, t.cols[idx].Name)
		}
	}
	out := make([][]Value, len(matched))
	for i, row := range matched {
		r := make([]Value, len(proj))
		for j, idx := range proj {
			r[j] = row[idx]
		}
		out[i] = r
	}
	return &Result{Columns: names, Rows: out}, nil
}

func (db *Database) update(s Update) (*Result, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, err := db.lookup(s.Table)
	if err != nil {
		return nil, err
	}
	// Validate assignments before touching any row so updates are atomic.
	type setOp struct {
		idx int
		val Value
	}
	ops := make([]setOp, 0, len(s.Set))
	for _, a := range s.Set {
		idx, ok := t.colIdx[strings.ToLower(a.Column)]
		if !ok {
			return nil, fmt.Errorf("sqlstore: no such column %q in %q", a.Column, s.Table)
		}
		cv, err := coerce(a.Value, t.cols[idx].Type)
		if err != nil {
			return nil, err
		}
		ops = append(ops, setOp{idx: idx, val: cv})
	}
	// Two passes: evaluate WHERE on the pre-update snapshot, then apply,
	// so an UPDATE whose SET changes its own predicate stays consistent.
	var hit []int
	for i, row := range t.rows {
		ok, err := s.Where.matches(t.colIdx, row)
		if err != nil {
			return nil, err
		}
		if ok {
			hit = append(hit, i)
		}
	}
	for _, i := range hit {
		for _, op := range ops {
			t.rows[i][op.idx] = op.val
		}
	}
	return &Result{Affected: len(hit)}, nil
}
