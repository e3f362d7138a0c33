package sqlstore

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokenKind classifies lexer output.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // punctuation and operators: ( ) , * = != <> < <= > >= ;
)

type token struct {
	kind tokenKind
	text string // raw text; a string literal's is its unescaped contents
}

// lexer tokenizes a SQL statement. It walks the source's bytes, decoding a
// rune only where a byte is not ASCII; an invalid byte reads as U+FFFD, as
// []rune(src) would have it. Tokens slice the source, and only an error
// counts runes, for its position.
type lexer struct {
	src string
	pos int // byte offset
}

func newLexer(src string) *lexer { return &lexer{src: src} }

// errf reports a syntax error at byte offset pos, named by its rune offset.
func (l *lexer) errf(pos int, format string, args ...any) error {
	return fmt.Errorf("sqlstore: syntax error at position %d: %s", utf8.RuneCountInString(l.src[:pos]), fmt.Sprintf(format, args...))
}

// runeAt decodes the rune at byte offset i and its width; past the end it
// is 0 of width 0.
func (l *lexer) runeAt(i int) (rune, int) {
	if i >= len(l.src) {
		return 0, 0
	}
	if c := l.src[i]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(l.src[i:])
}

// skip advances past every rune from pos on that ok accepts.
func (l *lexer) skip(ok func(rune) bool) {
	for {
		r, w := l.runeAt(l.pos)
		if w == 0 || !ok(r) {
			return
		}
		l.pos += w
	}
}

func isIdentRune(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' }

func (l *lexer) next() (token, error) {
	l.skip(unicode.IsSpace)
	if l.pos >= len(l.src) {
		return token{kind: tokEOF}, nil
	}
	start := l.pos
	c, w := l.runeAt(l.pos)
	after, _ := l.runeAt(l.pos + w)
	switch {
	case unicode.IsLetter(c) || c == '_':
		l.pos += w
		l.skip(isIdentRune)
		return token{kind: tokIdent, text: l.src[start:l.pos]}, nil
	case unicode.IsDigit(c) || c == '-' && unicode.IsDigit(after):
		l.pos += w // first digit or sign
		seenDot := false
		l.skip(func(r rune) bool {
			if r == '.' && !seenDot {
				seenDot = true
				return true
			}
			return unicode.IsDigit(r)
		})
		return token{kind: tokNumber, text: l.src[start:l.pos]}, nil
	case c == '\'':
		return l.literal(start)
	case strings.ContainsRune("(),*;=", c):
		l.pos++
		return token{kind: tokSymbol, text: l.src[start:l.pos]}, nil
	case c == '!':
		l.pos++
		if after == '=' {
			l.pos++
			return token{kind: tokSymbol, text: "!="}, nil
		}
		return token{}, l.errf(start, "unexpected '!'")
	case c == '<':
		l.pos++
		switch after {
		case '=':
			l.pos++
			return token{kind: tokSymbol, text: "<="}, nil
		case '>':
			l.pos++
			return token{kind: tokSymbol, text: "!="}, nil // <> normalized to !=
		}
		return token{kind: tokSymbol, text: "<"}, nil
	case c == '>':
		l.pos++
		if after == '=' {
			l.pos++
			return token{kind: tokSymbol, text: ">="}, nil
		}
		return token{kind: tokSymbol, text: ">"}, nil
	default:
		return token{}, l.errf(start, "unexpected character %q", string(c))
	}
}

// literal lexes the string literal whose opening quote is at start; a
// doubled quote inside it is one quote. Its text slices the source unless
// it holds such an escape or an invalid byte; then the runs between them
// are copied.
func (l *lexer) literal(start int) (token, error) {
	var sb strings.Builder
	from := start + 1 // first byte not yet in sb
	for i := from; i < len(l.src); {
		switch c := l.src[i]; {
		case c == '\'' && i+1 < len(l.src) && l.src[i+1] == '\'':
			sb.WriteString(l.src[from : i+1])
			i += 2
			from = i
		case c == '\'':
			l.pos = i + 1
			if sb.Len() == 0 {
				return token{kind: tokString, text: l.src[from:i]}, nil
			}
			sb.WriteString(l.src[from:i])
			return token{kind: tokString, text: sb.String()}, nil
		case c < utf8.RuneSelf:
			i++
		default:
			r, w := utf8.DecodeRuneInString(l.src[i:])
			if r == utf8.RuneError && w == 1 {
				sb.WriteString(l.src[from:i])
				sb.WriteRune(utf8.RuneError)
				from = i + 1
			}
			i += w
		}
	}
	return token{}, l.errf(start, "unterminated string literal")
}

// lex tokenizes the whole statement up front, which simplifies lookahead.
// The token slice is sized once from the statement: the suite's statements
// run about four bytes a token, so a third of the length holds them, and
// a denser one grows the slice by append.
func lex(src string) ([]token, error) {
	l := newLexer(src)
	toks := make([]token, 0, len(src)/3+1)
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
