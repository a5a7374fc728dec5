package sql

import "testing"

func lexKinds(t *testing.T, input string) []token {
	t.Helper()
	toks, err := lex(input)
	if err != nil {
		t.Fatalf("lex(%q): %v", input, err)
	}
	return toks
}

func TestLexKeywordsCaseInsensitive(t *testing.T) {
	toks := lexKinds(t, "select Uid from POL")
	want := []struct {
		kind tokenKind
		text string
	}{
		{tokKeyword, "SELECT"}, {tokIdent, "Uid"}, {tokKeyword, "FROM"}, {tokIdent, "POL"},
	}
	for i, w := range want {
		if toks[i].kind != w.kind || toks[i].text != w.text {
			t.Errorf("token %d = %v %q, want %v %q", i, toks[i].kind, toks[i].text, w.kind, w.text)
		}
	}
	if toks[len(toks)-1].kind != tokEOF {
		t.Error("missing EOF token")
	}
}

func TestLexNumbers(t *testing.T) {
	toks := lexKinds(t, "1 23 4.5 0.25")
	kinds := []tokenKind{tokInt, tokInt, tokFloat, tokFloat}
	for i, k := range kinds {
		if toks[i].kind != k {
			t.Errorf("token %d kind = %v, want %v", i, toks[i].kind, k)
		}
	}
	if _, err := lex("1.2.3"); err == nil {
		t.Error("malformed number accepted")
	}
}

// TestLexNonASCIIDigit: a non-ASCII decimal digit is not a number. The
// lexer once took it for the start of one, consumed nothing, and looped
// forever appending empty tokens.
func TestLexNonASCIIDigit(t *testing.T) {
	for _, in := range []string{"٣", "SELECT ٣ FROM t", "1٣"} {
		if _, err := lex(in); err == nil {
			t.Errorf("lex(%q) accepted a non-ASCII digit", in)
		}
	}
	toks := lexKinds(t, "x٣")
	if toks[0].kind != tokIdent || toks[0].text != "x٣" {
		t.Errorf("identifier with a non-ASCII digit lexed as %v %q", toks[0].kind, toks[0].text)
	}
}

func TestLexStrings(t *testing.T) {
	toks := lexKinds(t, "'hello' 'it''s'")
	if toks[0].text != "hello" || toks[1].text != "it's" {
		t.Errorf("strings = %q, %q", toks[0].text, toks[1].text)
	}
	if _, err := lex("'unterminated"); err == nil {
		t.Error("unterminated string accepted")
	}
}

func TestLexOperators(t *testing.T) {
	toks := lexKinds(t, "< <= <> > >= = != ;")
	want := []string{"<", "<=", "<>", ">", ">=", "=", "<>", ";"}
	for i, w := range want {
		if toks[i].text != w {
			t.Errorf("token %d = %q, want %q", i, toks[i].text, w)
		}
	}
	if _, err := lex("a ! b"); err == nil {
		t.Error("lone '!' accepted")
	}
	if _, err := lex("a @ b"); err == nil {
		t.Error("'@' accepted")
	}
}

func TestLexComments(t *testing.T) {
	toks := lexKinds(t, "SELECT -- the works\n1")
	if len(toks) != 3 { // SELECT, 1, EOF
		t.Fatalf("tokens = %d, want 3", len(toks))
	}
	if toks[1].kind != tokInt {
		t.Errorf("token after comment = %v", toks[1])
	}
}

func TestLexIdentifiers(t *testing.T) {
	toks := lexKinds(t, "_tbl col_2 Grüße")
	for i, w := range []string{"_tbl", "col_2", "Grüße"} {
		if toks[i].kind != tokIdent || toks[i].text != w {
			t.Errorf("token %d = %v %q, want ident %q", i, toks[i].kind, toks[i].text, w)
		}
	}
}
