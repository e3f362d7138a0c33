package sqlstore

import (
	"strings"
	"testing"
	"time"
)

// The tests in this file carry the names of the tests that exercised the
// SQL PR 24 cut — aggregates and GROUP BY, OR/NOT/parentheses/IS NULL,
// DELETE, DROP TABLE, INSERT with a column list. Each runs its
// predecessor's statements and pins what they get now: a parse error that
// names the first token outside the grammar, and a table left as it was.

// wantParseError requires Exec to refuse q with a parse error near token.
func wantParseError(t *testing.T, db *Database, q, token string) {
	t.Helper()
	_, err := db.Exec(q)
	if want := `sqlstore: parse error near "` + token + `"`; err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("Exec(%q): err = %v, want %s", q, err, want)
	}
}

func TestParseCountStar(t *testing.T) {
	if _, err := Parse("SELECT COUNT(*) FROM t WHERE a = 1"); err == nil || !strings.Contains(err.Error(), `near "(": expected FROM`) {
		t.Fatalf("COUNT(*): err = %v", err)
	}
	// With the aggregates gone their names are ordinary identifiers.
	st, err := Parse("SELECT count, min FROM t")
	if err != nil || len(st.(Select).Columns) != 2 {
		t.Fatalf("columns named count and min: %+v, %v", st, err)
	}
}

func TestSelectCountStar(t *testing.T) {
	wantParseError(t, newTestDB(t), "SELECT COUNT(*) FROM emp WHERE dept = 'eng'", "(")
}

func TestAggregatesOverWholeTable(t *testing.T) {
	wantParseError(t, newTestDB(t), "SELECT COUNT(*), COUNT(salary), SUM(salary), AVG(salary), MIN(salary), MAX(salary) FROM emp", "(")
}

func TestAggregateEmptyInput(t *testing.T) {
	wantParseError(t, newTestDB(t), "SELECT COUNT(*), SUM(salary), MIN(salary) FROM emp WHERE id > 100", "(")
}

func TestSumOfIntegersStaysInteger(t *testing.T) {
	wantParseError(t, newTestDB(t), "SELECT SUM(id) FROM emp", "(")
}

func TestMinMaxOnText(t *testing.T) {
	wantParseError(t, newTestDB(t), "SELECT MIN(name), MAX(name) FROM emp", "(")
}

func TestAggregateErrors(t *testing.T) {
	db := newTestDB(t)
	for _, q := range []string{
		"SELECT SUM(name) FROM emp",
		"SELECT AVG(*) FROM emp",
		"SELECT name, COUNT(*) FROM emp",
		"SELECT SUM(nope) FROM emp",
	} {
		wantParseError(t, db, q, "(")
	}
}

func TestGroupBy(t *testing.T) {
	wantParseError(t, newTestDB(t), "SELECT dept FROM emp GROUP BY dept ORDER BY dept", "GROUP")
}

func TestGroupByDescAndLimit(t *testing.T) {
	wantParseError(t, newTestDB(t), "SELECT dept FROM emp GROUP BY dept ORDER BY dept DESC LIMIT 2", "GROUP")
}

func TestGroupByWithWhere(t *testing.T) {
	wantParseError(t, newTestDB(t), "SELECT dept FROM emp WHERE salary < 100 GROUP BY dept ORDER BY dept", "GROUP")
}

func TestGroupByNullKeyIsItsOwnGroup(t *testing.T) {
	wantParseError(t, newTestDB(t), "SELECT * FROM emp GROUP BY dept", "GROUP")
}

func TestAggregatesOverTheWire(t *testing.T) {
	addr := startSQLServer(t)
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query("CREATE TABLE sales (region TEXT, amount INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("INSERT INTO sales VALUES ('east', 10), ('east', 20), ('west', 5)"); err != nil {
		t.Fatal(err)
	}
	_, err = c.Query("SELECT region, SUM(amount) FROM sales GROUP BY region ORDER BY region")
	if err == nil || !strings.Contains(err.Error(), `parse error near "("`) {
		t.Fatalf("aggregate over the wire: err = %v", err)
	}
	// A refused statement is an error reply, not a dropped connection.
	if res, err := c.Query("SELECT amount FROM sales WHERE region = 'east' ORDER BY amount DESC"); err != nil || len(res.Rows) != 2 || res.Rows[0][0] != int64(20) {
		t.Fatalf("query after the refusal: %+v, %v", res, err)
	}
}

func TestSelectOr(t *testing.T) {
	db := newTestDB(t)
	wantParseError(t, db, "SELECT id FROM emp WHERE dept = 'mgmt' OR dept = 'ops' ORDER BY id", "OR")
	wantParseError(t, db, "SELECT id FROM emp WHERE NOT dept = 'eng'", "dept")
	wantParseError(t, db, "SELECT id FROM emp WHERE (dept = 'mgmt')", "(")
	wantParseError(t, db, "SELECT name FROM emp WHERE salary IS NULL", "IS")
	wantParseError(t, db, "SELECT name FROM emp WHERE salary IS NOT NULL", "IS")
}

func TestDelete(t *testing.T) {
	db := newTestDB(t)
	wantParseError(t, db, "DELETE FROM emp WHERE salary < 85", "DELETE")
	if n := countRows(t, db, "emp"); n != 5 {
		t.Fatalf("%d rows after the refused DELETE, want 5", n)
	}
}

func TestDropTable(t *testing.T) {
	db := newTestDB(t)
	wantParseError(t, db, "DROP TABLE emp", "DROP")
	if n := countRows(t, db, "emp"); n != 5 {
		t.Fatalf("%d rows after the refused DROP, want 5", n)
	}
}

// INSERT takes whole rows in table order; a column left out is written as
// NULL.
func TestInsertColumnSubsetFillsNull(t *testing.T) {
	db := newTestDB(t)
	wantParseError(t, db, "INSERT INTO emp (id, name) VALUES (6, 'frank')", "(")
	mustExec(t, db, "INSERT INTO emp VALUES (6, 'frank', NULL, NULL)")
	res := mustExec(t, db, "SELECT salary, dept FROM emp WHERE id = 6")
	if len(res.Rows) != 1 || res.Rows[0][0] != nil || res.Rows[0][1] != nil {
		t.Fatalf("rows = %v, want one row of NULLs", res.Rows)
	}
}
