package sqlstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// --- Lexer ---

func TestLexBasics(t *testing.T) {
	toks, err := lex("SELECT a, b FROM t WHERE x >= -3.5 AND name != 'o''brien';")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		if tk.kind == tokEOF {
			break
		}
		texts = append(texts, tk.text)
	}
	want := []string{"SELECT", "a", ",", "b", "FROM", "t", "WHERE", "x", ">=", "-3.5", "AND", "name", "!=", "o'brien", ";"}
	if len(texts) != len(want) {
		t.Fatalf("tokens = %v", texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Fatalf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
}

func TestLexNormalizesNotEquals(t *testing.T) {
	toks, err := lex("a <> b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].text != "!=" {
		t.Fatalf("<> lexed as %q, want !=", toks[1].text)
	}
}

func TestLexRejects(t *testing.T) {
	for _, bad := range []string{"'unterminated", "a ! b", "a @ b"} {
		if _, err := lex(bad); err == nil {
			t.Fatalf("lexed %q without error", bad)
		}
	}
}

// TestLexFixtureInsertAllocs lexes a statement shaped like the live
// fixture's INSERT (workload.SeedStores: 200 rows of id, name, balance and
// region, about 8 KB and 2,000 tokens) in one allocation, the token slice
// sized from the statement's length rather than grown by append.
func TestLexFixtureInsertAllocs(t *testing.T) {
	regions := []string{"us-east", "us-west", "eu-central", "ap-south"}
	rng := rand.New(rand.NewSource(7))
	var sb strings.Builder
	sb.WriteString("INSERT INTO records VALUES ")
	for i := 0; i < 200; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, 'acct-%04d', %.2f, '%s')", i, i, rng.Float64()*10000, regions[i%len(regions)])
	}
	src := sb.String()
	if toks, err := lex(src); err != nil || len(toks) != 2004 {
		t.Fatalf("lexed %d tokens (err %v), want 2,004", len(toks), err)
	}
	if got := testing.AllocsPerRun(20, func() { lex(src) }); got != 1 {
		t.Fatalf("lexing the fixture INSERT allocates %v times, want 1", got)
	}
}

// --- Parser ---

func TestParseCreateTable(t *testing.T) {
	st, err := Parse("CREATE TABLE users (id INT, name VARCHAR(64), score FLOAT)")
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(CreateTable)
	if ct.Table != "users" || len(ct.Columns) != 3 {
		t.Fatalf("parsed %+v", ct)
	}
	if ct.Columns[0].Type != IntType || ct.Columns[1].Type != TextType || ct.Columns[2].Type != FloatType {
		t.Fatalf("column types wrong: %+v", ct.Columns)
	}
}

func TestParseInsertMultiRow(t *testing.T) {
	st, err := Parse("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
	if err != nil {
		t.Fatal(err)
	}
	in := st.(Insert)
	if len(in.Rows) != 2 || in.Rows[1][0] != int64(2) || in.Rows[1][1] != "y" {
		t.Fatalf("parsed %+v", in)
	}
}

func TestParseSelectFull(t *testing.T) {
	st, err := Parse("SELECT a, b FROM t WHERE a > 1 AND b != 'x' AND 3 <= c ORDER BY a DESC LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(Select)
	if sel.Table != "t" || len(sel.Columns) != 2 || sel.OrderBy != "a" || !sel.Desc || sel.Limit != 10 {
		t.Fatalf("parsed %+v", sel)
	}
	if sel.Columns[0] != "a" || sel.Columns[1] != "b" {
		t.Fatalf("columns = %+v", sel.Columns)
	}
	want := Where{
		{op: ">", l: operand{isCol: true, column: "a"}, r: operand{literal: int64(1)}},
		{op: "!=", l: operand{isCol: true, column: "b"}, r: operand{literal: "x"}},
		{op: "<=", l: operand{literal: int64(3)}, r: operand{isCol: true, column: "c"}},
	}
	if !reflect.DeepEqual(sel.Where, want) {
		t.Fatalf("WHERE = %+v, want %+v", sel.Where, want)
	}
}

func TestParseKeywordsCaseInsensitive(t *testing.T) {
	if _, err := Parse("select * from t where a = 1 order by a limit 1"); err != nil {
		t.Fatal(err)
	}
}

func TestParseRejects(t *testing.T) {
	bad := []string{
		"",
		"SELEKT * FROM t",
		"SELECT * FROM",
		"CREATE TABLE t ()",
		"CREATE TABLE t (a BLOB)",
		"INSERT INTO t VALUES",
		"UPDATE t SET",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t LIMIT -1",
		"SELECT * FROM t; garbage",
		"DELETE t WHERE a = 1",
		"SELECT * FROM t WHERE 1 IS NULL",
		"SELECT * FROM t WHERE a",
		"SELECT * FROM t WHERE a = 1 AND",
		"SELECT * FROM t WHERE a = 1 b = 2",
		"UPDATE t SET a = 1 WHERE",
		strings.Repeat(" ", maxStatementLen) + ";",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Fatalf("parsed %q without error", q)
		}
	}
}

// --- Executor ---

func newTestDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	mustExec(t, db, "CREATE TABLE emp (id INT, name TEXT, salary FLOAT, dept TEXT)")
	mustExec(t, db, `INSERT INTO emp VALUES
		(1, 'alice', 90.5, 'eng'),
		(2, 'bob', 80.0, 'eng'),
		(3, 'carol', 120.0, 'mgmt'),
		(4, 'dave', 70.25, 'ops'),
		(5, 'erin', NULL, 'eng')`)
	return db
}

func mustExec(t *testing.T, db *Database, q string) *Result {
	t.Helper()
	res, err := db.Exec(q)
	if err != nil {
		t.Fatalf("Exec(%q): %v", q, err)
	}
	return res
}

// countRows returns how many rows "SELECT * FROM <from>" yields.
func countRows(t *testing.T, db *Database, from string) int {
	t.Helper()
	return len(mustExec(t, db, "SELECT * FROM "+from).Rows)
}

func TestSelectAll(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, "SELECT * FROM emp")
	if len(res.Rows) != 5 || len(res.Columns) != 4 {
		t.Fatalf("got %d rows × %d cols", len(res.Rows), len(res.Columns))
	}
}

func TestSelectWhereAndProjection(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, "SELECT name FROM emp WHERE dept = 'eng' AND salary > 85")
	if len(res.Rows) != 1 || res.Rows[0][0] != "alice" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestSelectNullSemantics(t *testing.T) {
	db := newTestDB(t)
	// NULL never matches comparisons...
	res := mustExec(t, db, "SELECT id FROM emp WHERE salary > 0")
	if len(res.Rows) != 4 {
		t.Fatalf("NULL salary matched a comparison: %v", res.Rows)
	}
	// ...not even a comparison with NULL itself, on either side.
	for _, q := range []string{
		"SELECT id FROM emp WHERE salary = NULL",
		"SELECT id FROM emp WHERE salary != NULL",
		"SELECT id FROM emp WHERE NULL = NULL",
	} {
		if res := mustExec(t, db, q); len(res.Rows) != 0 {
			t.Fatalf("%s matched %v", q, res.Rows)
		}
	}
}

func TestSelectOrderByAndLimit(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, "SELECT name FROM emp WHERE salary > 0 ORDER BY salary DESC LIMIT 2")
	if len(res.Rows) != 2 || res.Rows[0][0] != "carol" || res.Rows[1][0] != "alice" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestUpdate(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, "UPDATE emp SET salary = 100.0, dept = 'core' WHERE dept = 'eng'")
	if res.Affected != 3 {
		t.Fatalf("affected = %d, want 3", res.Affected)
	}
	if n := countRows(t, db, "emp WHERE dept = 'core' AND salary = 100.0"); n != 3 {
		t.Fatalf("post-update count = %d", n)
	}
}

func TestUpdateIsAtomicOnBadAssignment(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec("UPDATE emp SET salary = 'oops' WHERE id = 1"); err == nil {
		t.Fatal("type-mismatched UPDATE succeeded")
	}
	res := mustExec(t, db, "SELECT salary FROM emp WHERE id = 1")
	if res.Rows[0][0] != 90.5 {
		t.Fatalf("row mutated by failed update: %v", res.Rows[0][0])
	}
}

func TestIntCoercesToFloatColumn(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "INSERT INTO emp VALUES (7, 'gail', 95, 'eng')")
	res := mustExec(t, db, "SELECT salary FROM emp WHERE id = 7")
	if res.Rows[0][0] != float64(95) {
		t.Fatalf("salary = %v (%T), want 95.0", res.Rows[0][0], res.Rows[0][0])
	}
}

func TestExecErrors(t *testing.T) {
	db := newTestDB(t)
	bad := []string{
		"SELECT * FROM nope",
		"SELECT nope FROM emp",
		"SELECT * FROM emp WHERE nope = 1",
		"SELECT * FROM emp ORDER BY nope",
		"INSERT INTO emp VALUES (1)",
		"INSERT INTO emp VALUES ('x', 'y', 'z', 'w')",
		"CREATE TABLE emp (id INT)",
		"CREATE TABLE t2 (a INT, a TEXT)",
		"UPDATE nope SET a = 1",
		"SELECT * FROM emp WHERE name > 5",
	}
	for _, q := range bad {
		if _, err := db.Exec(q); err == nil {
			t.Fatalf("Exec(%q) succeeded, want error", q)
		}
	}
}

func TestTableNamesCaseInsensitive(t *testing.T) {
	db := newTestDB(t)
	if countRows(t, db, "EMP") != 5 {
		t.Fatal("table lookup should be case-insensitive")
	}
	res := mustExec(t, db, "SELECT NAME FROM emp WHERE ID = 1")
	if res.Rows[0][0] != "alice" {
		t.Fatal("column lookup should be case-insensitive")
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	db := NewDatabase()
	mustExec(t, db, "CREATE TABLE ctr (id INT, n INT)")
	mustExec(t, db, "INSERT INTO ctr VALUES (1, 0)")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := db.Exec(fmt.Sprintf("INSERT INTO ctr VALUES (%d, %d)", g*1000+i, i)); err != nil {
					t.Error(err)
					return
				}
				if _, err := db.Exec("SELECT id FROM ctr WHERE n >= 0"); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := countRows(t, db, "ctr"); n != 201 {
		t.Fatalf("rows = %d, want 201", n)
	}
}

// Property: inserting N distinct ids and selecting them back preserves count
// and a WHERE on id returns exactly one row.
func TestInsertSelectProperty(t *testing.T) {
	prop := func(ids []uint16) bool {
		db := NewDatabase()
		if _, err := db.Exec("CREATE TABLE t (id INT, v TEXT)"); err != nil {
			return false
		}
		seen := map[uint16]bool{}
		n := 0
		for _, id := range ids {
			if seen[id] {
				continue
			}
			seen[id] = true
			n++
			if _, err := db.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'v%d')", id, id)); err != nil {
				return false
			}
		}
		res, err := db.Exec("SELECT id FROM t")
		if err != nil || len(res.Rows) != n {
			return false
		}
		for id := range seen {
			res, err := db.Exec(fmt.Sprintf("SELECT v FROM t WHERE id = %d", id))
			if err != nil || len(res.Rows) != 1 || res.Rows[0][0] != fmt.Sprintf("v%d", id) {
				return false
			}
			break // one probe per case keeps the property fast
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// --- End-to-end over TCP ---

func startSQLServer(t *testing.T) string {
	t.Helper()
	srv := NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

func TestEndToEndQuery(t *testing.T) {
	addr := startSQLServer(t)
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Query("CREATE TABLE kv (k TEXT, v INT)"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query("INSERT INTO kv VALUES ('a', 1), ('b', 2)")
	if err != nil || res.Affected != 2 {
		t.Fatalf("insert: %+v, %v", res, err)
	}
	res, err = c.Query("SELECT v FROM kv WHERE k = 'b'")
	if err != nil {
		t.Fatal(err)
	}
	// Wire decoding must hand back int64, not float64.
	if res.Rows[0][0] != int64(2) {
		t.Fatalf("value = %v (%T), want int64(2)", res.Rows[0][0], res.Rows[0][0])
	}
	res, err = c.Query("UPDATE kv SET v = 10 WHERE k = 'a'")
	if err != nil || res.Affected != 1 {
		t.Fatalf("update: %+v, %v", res, err)
	}
}

func TestEndToEndErrorKeepsConnection(t *testing.T) {
	addr := startSQLServer(t)
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query("SELECT * FROM missing"); err == nil || !strings.Contains(err.Error(), "no such table") {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.Query("CREATE TABLE ok (a INT)"); err != nil {
		t.Fatalf("connection unusable after error: %v", err)
	}
}

func TestEndToEndFloatsSurviveWire(t *testing.T) {
	addr := startSQLServer(t)
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Query("CREATE TABLE f (x FLOAT)")        //nolint:errcheck
	c.Query("INSERT INTO f VALUES (2.5), (3)") //nolint:errcheck
	res, err := c.Query("SELECT x FROM f ORDER BY x")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != 2.5 {
		t.Fatalf("row0 = %v (%T)", res.Rows[0][0], res.Rows[0][0])
	}
	// Integral floats decode as int64 on the wire (JSON erases the
	// distinction); comparisons still work across the int/float divide.
	res, err = c.Query("SELECT x FROM f WHERE x >= 2.5")
	if err != nil || len(res.Rows) != 2 || res.Rows[1][0] != int64(3) {
		t.Fatalf("rows = %v, %v", res.Rows, err)
	}
}
