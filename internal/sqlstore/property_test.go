package sqlstore

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// Differential property test: build a random table, generate random WHERE
// clauses, and check the engine's SELECT against a plain Go filter over
// the same rows. Catches parser/evaluator disagreements that example-based
// tests miss.

type refRow struct {
	id      int64
	qty     int64
	price   float64
	name    string
	hasName bool // false → NULL
}

func buildRandomTable(t *testing.T, rng *rand.Rand, db *Database) []refRow {
	t.Helper()
	if _, err := db.Exec("CREATE TABLE items (id INT, qty INT, price FLOAT, name TEXT)"); err != nil {
		t.Fatal(err)
	}
	n := 20 + rng.Intn(60)
	rows := make([]refRow, 0, n)
	var sb strings.Builder
	sb.WriteString("INSERT INTO items VALUES ")
	for i := 0; i < n; i++ {
		r := refRow{
			id:      int64(i),
			qty:     int64(rng.Intn(20) - 5),
			price:   float64(rng.Intn(1000)) / 10,
			hasName: rng.Intn(5) != 0,
		}
		if r.hasName {
			r.name = fmt.Sprintf("item-%c", 'a'+rune(rng.Intn(6)))
		}
		rows = append(rows, r)
		if i > 0 {
			sb.WriteString(", ")
		}
		nameLit := "NULL"
		if r.hasName {
			nameLit = "'" + r.name + "'"
		}
		fmt.Fprintf(&sb, "(%d, %d, %f, %s)", r.id, r.qty, r.price, nameLit)
	}
	if _, err := db.Exec(sb.String()); err != nil {
		t.Fatal(err)
	}
	return rows
}

// predicate pairs a SQL fragment with its reference evaluation.
type predicate struct {
	sql  string
	eval func(refRow) bool
}

// randomPredicate returns a conjunction of 1..max comparisons — the whole
// WHERE grammar.
func randomPredicate(rng *rand.Rand, max int) predicate {
	pred := randomComparison(rng)
	for n := rng.Intn(max); n > 0; n-- {
		left, right := pred, randomComparison(rng)
		pred = predicate{
			sql:  left.sql + " AND " + right.sql,
			eval: func(r refRow) bool { return left.eval(r) && right.eval(r) },
		}
	}
	return pred
}

func randomComparison(rng *rand.Rand) predicate {
	switch rng.Intn(4) {
	case 0:
		v := int64(rng.Intn(20) - 5)
		op, cmp := randomOp(rng)
		return predicate{
			sql:  fmt.Sprintf("qty %s %d", op, v),
			eval: func(r refRow) bool { return cmp(compareInt(r.qty, v)) },
		}
	case 1:
		v := float64(rng.Intn(1000)) / 10
		op, cmp := randomOp(rng)
		return predicate{
			sql:  fmt.Sprintf("price %s %f", op, v),
			eval: func(r refRow) bool { return cmp(compareFloat(r.price, v)) },
		}
	case 2:
		v := fmt.Sprintf("item-%c", 'a'+rune(rng.Intn(6)))
		op, cmp := randomOp(rng)
		return predicate{
			sql: fmt.Sprintf("name %s '%s'", op, v),
			eval: func(r refRow) bool {
				if !r.hasName {
					return false // NULL never matches comparisons
				}
				return cmp(strings.Compare(r.name, v))
			},
		}
	default: // literal on the left, column on the right
		v := int64(rng.Intn(20) - 5)
		op, cmp := randomOp(rng)
		return predicate{
			sql:  fmt.Sprintf("%d %s qty", v, op),
			eval: func(r refRow) bool { return cmp(compareInt(v, r.qty)) },
		}
	}
}

func randomOp(rng *rand.Rand) (string, func(int) bool) {
	switch rng.Intn(6) {
	case 0:
		return "=", func(c int) bool { return c == 0 }
	case 1:
		return "!=", func(c int) bool { return c != 0 }
	case 2:
		return "<", func(c int) bool { return c < 0 }
	case 3:
		return "<=", func(c int) bool { return c <= 0 }
	case 4:
		return ">", func(c int) bool { return c > 0 }
	default:
		return ">=", func(c int) bool { return c >= 0 }
	}
}

func compareInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func TestRandomWhereClausesAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20260706))
	for trial := 0; trial < 40; trial++ {
		db := NewDatabase()
		rows := buildRandomTable(t, rng, db)
		for q := 0; q < 25; q++ {
			pred := randomPredicate(rng, 4)
			query := "SELECT id FROM items WHERE " + pred.sql + " ORDER BY id"
			res, err := db.Exec(query)
			if err != nil {
				t.Fatalf("trial %d: %s: %v", trial, query, err)
			}
			var want []int64
			for _, r := range rows {
				if pred.eval(r) {
					want = append(want, r.id)
				}
			}
			if len(res.Rows) != len(want) {
				t.Fatalf("trial %d: %s\nengine %d rows, reference %d", trial, query, len(res.Rows), len(want))
			}
			for i, w := range want {
				if res.Rows[i][0] != w {
					t.Fatalf("trial %d: %s\nrow %d = %v, want %d", trial, query, i, res.Rows[i][0], w)
				}
			}
		}
	}
}

// TestRandomUpdateDeleteAgainstReference kept its name when DELETE was cut
// (PR 24); UPDATE is the one statement left that writes through a WHERE.
func TestRandomUpdateDeleteAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		db := NewDatabase()
		rows := buildRandomTable(t, rng, db)
		pred := randomPredicate(rng, 2)

		// UPDATE must touch exactly the reference's rows: mark them with a
		// qty no seeded row has, then read the marks back.
		var want []int64
		for _, r := range rows {
			if pred.eval(r) {
				want = append(want, r.id)
			}
		}
		res, err := db.Exec("UPDATE items SET qty = 999 WHERE " + pred.sql)
		if err != nil {
			t.Fatalf("trial %d: UPDATE %s: %v", trial, pred.sql, err)
		}
		if res.Affected != len(want) {
			t.Fatalf("trial %d: UPDATE %s affected %d, reference %d", trial, pred.sql, res.Affected, len(want))
		}
		marked, err := db.Exec("SELECT id FROM items WHERE qty = 999 ORDER BY id")
		if err != nil {
			t.Fatal(err)
		}
		if len(marked.Rows) != len(want) {
			t.Fatalf("trial %d: UPDATE %s marked %d rows, reference %d", trial, pred.sql, len(marked.Rows), len(want))
		}
		for i, id := range want {
			if marked.Rows[i][0] != id {
				t.Fatalf("trial %d: UPDATE %s marked row %v, reference %d", trial, pred.sql, marked.Rows[i][0], id)
			}
		}
		if all, err := db.Exec("SELECT id FROM items"); err != nil || len(all.Rows) != len(rows) {
			t.Fatalf("trial %d: %d rows after UPDATE, want %d (%v)", trial, len(all.Rows), len(rows), err)
		}
	}
}
