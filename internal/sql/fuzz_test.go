package sql

import (
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// parseSeeds returns the statement texts the parser tests already use:
// every string literal of sql_test.go, and every statement of the EXPLAIN
// golden file.
func parseSeeds(tb testing.TB) []string {
	fset := gotoken.NewFileSet()
	file, err := goparser.ParseFile(fset, "sql_test.go", nil, 0)
	if err != nil {
		tb.Fatal(err)
	}
	var seeds []string
	ast.Inspect(file, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == gotoken.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				seeds = append(seeds, s)
			}
		}
		return true
	})
	golden, err := os.ReadFile(filepath.Join("testdata", "explain.golden"))
	if err != nil {
		tb.Fatal(err)
	}
	for _, line := range strings.Split(string(golden), "\n") {
		if stmt, ok := strings.CutPrefix(line, "> "); ok {
			seeds = append(seeds, stmt)
		}
	}
	return append(seeds, explainGoldenScript)
}

// FuzzParse feeds arbitrary text to Parse and ParseScript. Neither may
// panic, and parsing the same text twice must give the same outcome.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		_, err1 := Parse(text)
		_, err2 := Parse(text)
		if !sameOutcome(err1, err2) {
			t.Fatalf("Parse(%q) gave %v, then %v", text, err1, err2)
		}
		_, err1 = ParseScript(text)
		_, err2 = ParseScript(text)
		if !sameOutcome(err1, err2) {
			t.Fatalf("ParseScript(%q) gave %v, then %v", text, err1, err2)
		}
	})
}

func sameOutcome(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}
