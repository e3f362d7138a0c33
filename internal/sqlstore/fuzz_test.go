package sqlstore

import (
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary text to the SQL parser — it reads whatever a
// peer on the port puts in a frame. Oracle: Parse never panics and refuses
// anything over maxStatementLen; what it accepts is one of the four
// statement shapes, and Database.Exec on the same text either runs it or
// rejects it with an error (against a database that has the suite's table,
// so accepted statements reach the executor's type and column checks).
func FuzzParse(f *testing.F) {
	// The four shapes exactly as internal/workload/network.go renders them.
	f.Add("CREATE TABLE records (id INT, name TEXT, balance FLOAT, region TEXT)")
	f.Add("INSERT INTO records VALUES (0, 'acct-0000', 6046.60, 'us-east'), (1, 'acct-0001', 9405.09, 'us-west')")
	f.Add("SELECT id, name, balance FROM records WHERE region = 'us-east' AND balance >= 2500.000000 ORDER BY balance DESC LIMIT 20")
	f.Add("UPDATE records SET balance = 123.450000 WHERE id = 3")
	// One of each construct PR 24 removed.
	f.Add("SELECT COUNT(*) FROM records")
	f.Add("SELECT region, SUM(balance) FROM records GROUP BY region")
	f.Add("SELECT id FROM records WHERE id = 1 OR id = 2")
	f.Add("SELECT id FROM records WHERE NOT id = 1")
	f.Add("SELECT id FROM records WHERE ((id = 1))")
	f.Add("SELECT id FROM records WHERE name IS NOT NULL")
	f.Add("DELETE FROM records WHERE id = 1")
	f.Add("DROP TABLE records")
	f.Add("INSERT INTO records (id, name) VALUES (1, 'x')")
	f.Add(strings.Repeat("(", 4096))

	f.Fuzz(func(t *testing.T, src string) {
		st, err := Parse(src)
		if len(src) > maxStatementLen && err == nil {
			t.Fatalf("accepted a statement of %d bytes", len(src))
		}
		db := NewDatabase()
		if _, cerr := db.Exec("CREATE TABLE records (id INT, name TEXT, balance FLOAT, region TEXT)"); cerr != nil {
			t.Fatal(cerr)
		}
		if _, ierr := db.Exec("INSERT INTO records VALUES (1, 'a', 1.5, 'us-east'), (2, NULL, NULL, NULL)"); ierr != nil {
			t.Fatal(ierr)
		}
		res, xerr := db.Exec(src)
		if err != nil {
			if xerr == nil {
				t.Fatalf("Exec ran %q, which Parse refuses: %v", src, err)
			}
			return
		}
		switch st.(type) {
		case CreateTable, Insert, Select, Update:
		default:
			t.Fatalf("Parse(%q) produced %T", src, st)
		}
		if (res == nil) == (xerr == nil) {
			t.Fatalf("Exec(%q) = %v, %v: want exactly one", src, res, xerr)
		}
	})
}
