package sqlstore

import (
	"strings"
	"testing"
	"time"
)

// An over-long statement is refused by its length, before the lexer turns
// it into runes and tokens.
func TestStatementLengthCap(t *testing.T) {
	pad := strings.Repeat(" ", maxStatementLen-len("SELECT * FROM t"))
	if _, err := Parse("SELECT * FROM t" + pad); err != nil {
		t.Fatalf("statement of exactly maxStatementLen: %v", err)
	}
	_, err := Parse("SELECT * FROM t" + pad + " ")
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("statement over maxStatementLen: err = %v", err)
	}
}

// WHERE does not nest, so an open parenthesis is refused where it stands.
// The parent descended once per "(" — 8 Mi of them overflowed the stack and
// killed the process — so this is the size-scaled form: 100,000, under the
// length cap, and the error must name the first "(", not the end of input
// the parent reached after recursing through them all.
func TestNestedParenthesesRefusedAtTheFirst(t *testing.T) {
	q := "SELECT * FROM t WHERE " + strings.Repeat("(", 100_000)
	_, err := Parse(q)
	if want := `sqlstore: parse error near "(": expected a literal value`; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %s", err, want)
	}
}

// The input from the issue, whole, against a real server: 8 MiB of "(" in
// one frame (inside wire.MaxFrame) to the SQL port. The answer is an error
// reply and the connection stays usable, as for any statement that does not
// parse. At the parent this is `fatal error: stack overflow`.
func TestEndToEndParenFloodAnswersAnError(t *testing.T) {
	addr := startSQLServer(t)
	c, err := Dial(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query(strings.Repeat("(", 8<<20)); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("8 MiB of '(': err = %v, want the length refusal", err)
	}
	if _, err := c.Query("CREATE TABLE ok (a INT)"); err != nil {
		t.Fatalf("connection unusable after the flood: %v", err)
	}
}
