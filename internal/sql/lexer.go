// Package sql implements a small SQL dialect over the expiration-time
// engine: DDL, INSERT with an EXPIRES clause (the only place expiration
// times surface to users, per the paper's transparency goal), SELECT with
// joins, grouping and set operators, materialised views with maintenance
// options, ON EXPIRE triggers, and clock control for the logical engine
// time.
package sql

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokenKind classifies lexer output.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokInt
	tokFloat
	tokString
	tokSymbol // ( ) , ; * . = <> <= >= < > -
)

// token is one lexeme with its position for error messages.
type token struct {
	kind tokenKind
	text string // keywords are upper-cased; identifiers keep their case
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// keywords of the dialect.
var keywords = map[string]bool{
	"CREATE": true, "TABLE": true, "DROP": true, "INSERT": true, "INTO": true,
	"VALUES": true, "EXPIRES": true, "NEVER": true, "AT": true, "IN": true,
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"JOIN": true, "ON": true, "AND": true, "OR": true, "NOT": true,
	"UNION": true, "EXCEPT": true, "INTERSECT": true,
	"MATERIALIZED": true, "VIEW": true, "AS": true, "WITH": true,
	"TRIGGER": true, "EXPIRE": true, "DO": true, "NOTIFY": true,
	"SET": true, "POLICY": true, "ADVANCE": true, "TO": true, "SHOW": true,
	"TABLES": true, "VIEWS": true, "TIME": true, "STATS": true, "DELETE": true,
	"METRICS": true,
	"MIN":     true, "MAX": true, "SUM": true, "COUNT": true, "AVG": true,
	"INT": true, "INTEGER": true, "FLOAT": true, "STRING": true, "TEXT": true,
	"BOOL": true, "BOOLEAN": true, "TRUE": true, "FALSE": true, "NULL": true,
	"REFRESH": true, "EXPLAIN": true, "VALIDITY": true,
	"ORDER": true, "ASC": true, "DESC": true, "LIMIT": true,
	"ANALYZE": true, "EVENTS": true, "TRACES": true, "CACHE": true,
	"HISTORY": true, "HEALTH": true,
	"INDEX": true, "INDEXES": true, "USING": true,
}

// lex tokenises input, reporting the first malformed lexeme as an error.
func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	n := len(input)
	for i < n {
		c, width := utf8.DecodeRuneInString(input[i:])
		switch {
		case unicode.IsSpace(c):
			i += width
		case c == '-' && i+1 < n && input[i+1] == '-': // comment to end of line
			for i < n && input[i] != '\n' {
				i++
			}
		case isIdentStart(c):
			start := i
			for i < n {
				r, w := utf8.DecodeRuneInString(input[i:])
				if !isIdentPart(r) {
					break
				}
				i += w
			}
			word := input[start:i]
			up := strings.ToUpper(word)
			if keywords[up] {
				toks = append(toks, token{kind: tokKeyword, text: up, pos: start})
			} else {
				toks = append(toks, token{kind: tokIdent, text: word, pos: start})
			}
		case isDigit(c):
			// ASCII digits only: a non-ASCII digit would start a number
			// the byte loop below cannot consume.
			start := i
			isFloat := false
			for i < n && (isDigit(rune(input[i])) || input[i] == '.') {
				if input[i] == '.' {
					if isFloat {
						return nil, fmt.Errorf("sql: malformed number at offset %d", start)
					}
					isFloat = true
				}
				i++
			}
			kind := tokInt
			if isFloat {
				kind = tokFloat
			}
			toks = append(toks, token{kind: kind, text: input[start:i], pos: start})
		case c == '\'':
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' { // doubled quote escape
						sb.WriteByte('\'')
						i += 2
						continue
					}
					closed = true
					i++
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("sql: unterminated string literal")
			}
			toks = append(toks, token{kind: tokString, text: sb.String(), pos: i})
		case c == '<':
			if i+1 < n && (input[i+1] == '=' || input[i+1] == '>') {
				toks = append(toks, token{kind: tokSymbol, text: input[i : i+2], pos: i})
				i += 2
			} else {
				toks = append(toks, token{kind: tokSymbol, text: "<", pos: i})
				i++
			}
		case c == '>':
			if i+1 < n && input[i+1] == '=' {
				toks = append(toks, token{kind: tokSymbol, text: ">=", pos: i})
				i += 2
			} else {
				toks = append(toks, token{kind: tokSymbol, text: ">", pos: i})
				i++
			}
		case c == '!':
			if i+1 < n && input[i+1] == '=' {
				toks = append(toks, token{kind: tokSymbol, text: "<>", pos: i})
				i += 2
			} else {
				return nil, fmt.Errorf("sql: unexpected '!' at offset %d", i)
			}
		case strings.ContainsRune("(),;*=.+-", c):
			// '-' here is a unary minus for negative literals or the
			// subtraction-free dialect; the parser decides.
			toks = append(toks, token{kind: tokSymbol, text: string(c), pos: i})
			i++
		default:
			return nil, fmt.Errorf("sql: unexpected character %q at offset %d", c, i)
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: n})
	return toks, nil
}

func isIdentStart(c rune) bool {
	return unicode.IsLetter(c) || c == '_'
}

func isIdentPart(c rune) bool {
	return unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_'
}

func isDigit(c rune) bool { return c >= '0' && c <= '9' }
