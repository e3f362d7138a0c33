package sqlstore

import (
	"fmt"
	"strings"
	"testing"
	"unicode"
)

// runeLexer is the lexer as it was written first: it converts the statement
// to []rune and counts positions in runes. FuzzLexer holds the byte lexer
// to it.
type runeLexer struct {
	src []rune
	pos int
}

func (l *runeLexer) peek() rune {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *runeLexer) next() (token, error) {
	for l.pos < len(l.src) && unicode.IsSpace(l.src[l.pos]) {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	errf := func(format string, args ...any) error {
		return fmt.Errorf("sqlstore: syntax error at position %d: %s", start, fmt.Sprintf(format, args...))
	}
	switch {
	case unicode.IsLetter(c) || c == '_':
		for l.pos < len(l.src) && (unicode.IsLetter(l.src[l.pos]) || unicode.IsDigit(l.src[l.pos]) || l.src[l.pos] == '_') {
			l.pos++
		}
		return token{kind: tokIdent, text: string(l.src[start:l.pos])}, nil
	case unicode.IsDigit(c) || (c == '-' && l.pos+1 < len(l.src) && unicode.IsDigit(l.src[l.pos+1])):
		l.pos++ // first digit or sign
		seenDot := false
		for l.pos < len(l.src) {
			r := l.src[l.pos]
			if unicode.IsDigit(r) {
				l.pos++
				continue
			}
			if r == '.' && !seenDot {
				seenDot = true
				l.pos++
				continue
			}
			break
		}
		return token{kind: tokNumber, text: string(l.src[start:l.pos])}, nil
	case c == '\'':
		l.pos++
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return token{}, errf("unterminated string literal")
			}
			r := l.src[l.pos]
			if r == '\'' {
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
					sb.WriteRune('\'')
					l.pos += 2
					continue
				}
				l.pos++
				return token{kind: tokString, text: sb.String()}, nil
			}
			sb.WriteRune(r)
			l.pos++
		}
	case strings.ContainsRune("(),*;=", c):
		l.pos++
		return token{kind: tokSymbol, text: string(c)}, nil
	case c == '!':
		l.pos++
		if l.peek() == '=' {
			l.pos++
			return token{kind: tokSymbol, text: "!="}, nil
		}
		return token{}, errf("unexpected '!'")
	case c == '<':
		l.pos++
		switch l.peek() {
		case '=':
			l.pos++
			return token{kind: tokSymbol, text: "<="}, nil
		case '>':
			l.pos++
			return token{kind: tokSymbol, text: "!="}, nil
		}
		return token{kind: tokSymbol, text: "<"}, nil
	case c == '>':
		l.pos++
		if l.peek() == '=' {
			l.pos++
			return token{kind: tokSymbol, text: ">="}, nil
		}
		return token{kind: tokSymbol, text: ">"}, nil
	default:
		return token{}, errf("unexpected character %q", string(c))
	}
}

// runeLex is lex over runeLexer.
func runeLex(src string) ([]token, error) {
	l := &runeLexer{src: []rune(src)}
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

// FuzzLexer holds the byte lexer to runeLexer: the same token kinds and
// texts, or the same error text, on every input, invalid UTF-8 included.
func FuzzLexer(f *testing.F) {
	f.Add("SELECT a, b FROM t WHERE x >= -3.5 AND name != 'o''brien';")
	f.Add("INSERT INTO records VALUES (0, 'acct-0000', 6046.60, 'us-east')")
	f.Add("a <> b <= c < d > e >= f ! g")
	f.Add("SELECT naïve, 日本 FROM t WHERE x = -٣.٥ AND y = 'é''\xff'")
	f.Add("SELECT 'caf\xc3' FROM t")
	f.Add("ab\xffcd")
	f.Add("'unterminated \xe2\x82")
	f.Add("x = 1 \xef\xbf\xbd @")
	f.Add("é @")
	f.Add("'\xed\xa0\x80'")
	f.Add("'\xff' \xc3\xa9\xe2 @")
	f.Fuzz(func(t *testing.T, src string) {
		got, err := lex(src)
		want, werr := runeLex(src)
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("lex(%q) error %v, rune lexer %v", src, err, werr)
		}
		if len(got) != len(want) {
			t.Fatalf("lex(%q) = %d tokens, rune lexer %d", src, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("lex(%q) token %d = %+v, rune lexer %+v", src, i, got[i], want[i])
			}
		}
	})
}
