// Package sqlstore is the repository's PostgreSQL substitute: a small
// in-memory SQL engine served over a length-framed JSON TCP protocol.
//
// The paper points its SQLSelect and SQLUpdate workload functions at a
// PostgreSQL server hosted on a dedicated SBC (Sec IV-C). This package
// implements the four statement shapes those workloads and their fixture
// send, with a real lexer, parser, and executor, so the network-bound SQL
// workloads exercise genuine query parsing and evaluation on the far side
// of a TCP connection:
//
//	CREATE TABLE t (col type, ...)
//	INSERT INTO t VALUES (...), (...)
//	SELECT cols|* FROM t [WHERE p AND p ...] [ORDER BY c [ASC|DESC]] [LIMIT n]
//	UPDATE t SET c = v, ... [WHERE p AND p ...]
//
// with p a single comparison (= != <> < <= > >=) between columns and
// literals. PR 24 cut the rest — aggregates and GROUP BY, DELETE, DROP
// TABLE, OR/NOT/parentheses/IS NULL in WHERE, INSERT with a column list —
// and with the nesting went the parser's recursion; each is a parse error
// now and one `git revert` hunk away.
package sqlstore

import (
	"fmt"
)

// Type is a column type.
type Type int

const (
	// IntType holds 64-bit signed integers (INT, INTEGER, BIGINT).
	IntType Type = iota
	// FloatType holds float64 (FLOAT, REAL, DOUBLE).
	FloatType
	// TextType holds strings (TEXT, VARCHAR).
	TextType
)

func (t Type) String() string {
	switch t {
	case IntType:
		return "INT"
	case FloatType:
		return "FLOAT"
	case TextType:
		return "TEXT"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// Value is one SQL value: int64, float64, string, or nil (NULL).
type Value any

// typeOf reports whether v is storable in a column of type t, coercing
// ints to floats where SQL would.
func coerce(v Value, t Type) (Value, error) {
	if v == nil {
		return nil, nil
	}
	switch t {
	case IntType:
		if i, ok := v.(int64); ok {
			return i, nil
		}
	case FloatType:
		switch x := v.(type) {
		case float64:
			return x, nil
		case int64:
			return float64(x), nil
		}
	case TextType:
		if s, ok := v.(string); ok {
			return s, nil
		}
	}
	return nil, fmt.Errorf("sqlstore: value %v (%T) not assignable to %s column", v, v, t)
}

// compare orders two non-nil values of compatible types.
// Returns <0, 0, >0; an error for incomparable types.
func compare(a, b Value) (int, error) {
	switch x := a.(type) {
	case int64:
		switch y := b.(type) {
		case int64:
			return cmpInt(x, y), nil
		case float64:
			return cmpFloat(float64(x), y), nil
		}
	case float64:
		switch y := b.(type) {
		case int64:
			return cmpFloat(x, float64(y)), nil
		case float64:
			return cmpFloat(x, y), nil
		}
	case string:
		if y, ok := b.(string); ok {
			switch {
			case x < y:
				return -1, nil
			case x > y:
				return 1, nil
			default:
				return 0, nil
			}
		}
	}
	return 0, fmt.Errorf("sqlstore: cannot compare %T with %T", a, b)
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}
