package workload

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"microfaas/internal/mq"
	"microfaas/internal/objstore"
	"microfaas/internal/sqlstore"
)

var updateSuiteGolden = flag.Bool("update-suite-golden", false, "regenerate testdata/suite_outputs_golden.txt")

// TestSuiteOutputsGolden pins the bytes every Table I function returns:
// fresh backends, all 17 functions in All()'s (name) order, three
// invocations each with GenArgs from a fixed seed, one "name
// sha256(output)" line per call. The golden was rendered at the commit
// before the backing services were cut to the operations the suite
// performs (PR 24) and committed unchanged, so "the stores still serve
// every function the same bytes" is this test, not a claim. Regenerate
// with: go test ./internal/workload/ -run SuiteOutputsGolden -update-suite-golden.
func TestSuiteOutputsGolden(t *testing.T) {
	env := startBackends(t)
	rng := rand.New(rand.NewSource(22))
	var got strings.Builder
	for _, f := range All() {
		for i := 0; i < 3; i++ {
			out, err := f.Run(env, f.GenArgs(rng))
			if err != nil {
				t.Fatalf("%s invocation %d: %v", f.Name, i, err)
			}
			fmt.Fprintf(&got, "%s %x\n", f.Name, sha256.Sum256(out))
		}
	}
	path := filepath.Join("testdata", "suite_outputs_golden.txt")
	if *updateSuiteGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-suite-golden): %v", err)
	}
	if got.String() != string(want) {
		t.Fatalf("suite outputs drifted from the golden; got:\n%s", got.String())
	}
}

// sqlFixtureSHA256 is the SHA-256 of the JSON of `SELECT * FROM records
// ORDER BY id` on freshly seeded stores: every column of every row.
const sqlFixtureSHA256 = "3cdc147811a11585d187592d0279c2d5a5bf653cd543d2bc03da5fc70816a45b"

// TestSQLFixtureContent pins the SQL fixture by content. The suite golden
// sees the table only through SQLSelect's row count and SQLUpdate's
// affected count, so balances or names that drift would pass it.
func TestSQLFixtureContent(t *testing.T) {
	db := sqlstore.NewDatabase()
	if err := SeedStores(db, objstore.NewStore(), mq.NewBroker()); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("SELECT * FROM " + SQLTable + " ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != SQLRows {
		t.Fatalf("read back %d rows, want %d", len(res.Rows), SQLRows)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != sqlFixtureSHA256 {
		t.Fatalf("SQL fixture sha256 %s, want %s; first row %v", got, sqlFixtureSHA256, res.Rows[0])
	}
}
