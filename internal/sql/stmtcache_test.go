package sql

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"expdb/internal/algebra"
	"expdb/internal/engine"
)

// stmtCachePair opens two sessions on one engine: the first runs the
// queries under test through its statement cache, the second issues the
// DDL that should invalidate them.
func stmtCachePair(t *testing.T, script string) (*Session, *Session) {
	t.Helper()
	eng := engine.New()
	a, b := NewSession(eng, nil), NewSession(eng, nil)
	if _, err := b.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// answerString renders everything a SELECT answers with: the tick, the
// validity stamp, the columns, and every visible row with its texp.
func answerString(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "at=%s validity=[%s,%s) cols=%s\n",
		res.At, res.Validity.At, res.Validity.ValidUntil, res.Rel.Schema())
	for _, row := range res.Rows() {
		fmt.Fprintf(&b, "%s texp=%s\n", row.Tuple, row.Texp)
	}
	return b.String()
}

// checkStmtCached runs q on s through Exec and the same text on a fresh,
// statement-cache-free session (parsed and run with ExecStmt) over the
// same engine, and requires identical answers — or identical errors. It
// also requires the statement cache to have hit exactly when wantHit.
func checkStmtCached(t *testing.T, s *Session, q string, wantHit bool) *Result {
	t.Helper()
	hits := s.m.StmtCacheHits.Load()
	got, gotErr := s.Exec(q)
	if hit := s.m.StmtCacheHits.Load() > hits; hit != wantHit {
		t.Fatalf("%q: statement-cache hit = %v, want %v", q, hit, wantHit)
	}
	ref := NewSession(s.eng, nil)
	ref.policy = s.policy
	var want *Result
	stmt, wantErr := Parse(q)
	if wantErr == nil {
		want, wantErr = ref.ExecStmt(stmt)
	}
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%q: err = %v, cache-free err = %v", q, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%q: err = %v, cache-free err = %v", q, gotErr, wantErr)
		}
		return nil
	}
	if g, w := answerString(got), answerString(want); g != w {
		t.Fatalf("%q: answer differs from a cache-free session's\ngot:\n%swant:\n%s", q, g, w)
	}
	return got
}

func TestStmtCacheRecreatedTable(t *testing.T) {
	a, b := stmtCachePair(t, `
		CREATE TABLE t (x INT, y INT);
		INSERT INTO t VALUES (1, 10), (2, 20) EXPIRES AT 50;
	`)
	const q = "SELECT * FROM t WHERE x = 1"
	checkStmtCached(t, a, q, false)
	checkStmtCached(t, a, q, true)

	// The other session replaces t with a different schema and rows: the
	// cached plan binds the dropped relation and must not be reused.
	mustExec(t, b, "DROP TABLE t")
	checkStmtCached(t, a, q, false) // no such table, for both sessions
	mustExec(t, b, "CREATE TABLE t (x INT, z INT, w INT)")
	mustExec(t, b, "INSERT INTO t VALUES (1, 7, 8) EXPIRES AT 30")
	res := checkStmtCached(t, a, q, false)
	if res.Rel.Schema().Arity() != 3 || res.Rel.CountAt(res.At) != 1 {
		t.Fatalf("re-created table not seen:\n%s", answerString(res))
	}
	checkStmtCached(t, a, q, true)

	// A schema without the referenced column fails like a fresh parse.
	mustExec(t, b, "DROP TABLE t")
	mustExec(t, b, "CREATE TABLE t (y INT)")
	checkStmtCached(t, a, q, false)
}

func TestStmtCacheIndexSwitchesAccessPath(t *testing.T) {
	a, b := stmtCachePair(t, `
		CREATE TABLE ev (k INT, v INT);
		INSERT INTO ev VALUES (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6) EXPIRES AT 40;
	`)
	const q = "SELECT * FROM ev WHERE k = 3"
	// accessPath is what a result-cache miss would run for q's entry.
	accessPath := func() algebra.Expr {
		t.Helper()
		el, ok := a.stmts[q]
		if !ok {
			t.Fatalf("%q not in the statement cache", q)
		}
		phys, _ := a.optimize(el.Value.(*prepared).logical, false)
		return phys
	}
	a.eng.SetResultCache(0) // every run picks its physical plan
	checkStmtCached(t, a, q, false)
	if _, ok := accessPath().(*algebra.IndexScan); ok {
		t.Fatal("index probe chosen with no index")
	}

	mustExec(t, b, "CREATE INDEX ev_k ON ev (k)")
	checkStmtCached(t, a, q, false)
	if _, ok := accessPath().(*algebra.IndexScan); !ok {
		t.Fatalf("CREATE INDEX did not switch the access path: %s", accessPath())
	}
	checkStmtCached(t, a, q, true)

	mustExec(t, b, "DROP INDEX ev_k")
	checkStmtCached(t, a, q, false)
	if _, ok := accessPath().(*algebra.IndexScan); ok {
		t.Fatal("DROP INDEX left the probe in place")
	}
}

func TestStmtCacheViewReplacesTable(t *testing.T) {
	a, b := stmtCachePair(t, `
		CREATE TABLE src (x INT);
		CREATE TABLE v (x INT);
		INSERT INTO src VALUES (1), (2), (3) EXPIRES AT 20;
		INSERT INTO v VALUES (9) EXPIRES AT 20;
	`)
	const q = "SELECT * FROM v"
	checkStmtCached(t, a, q, false)
	checkStmtCached(t, a, q, true)

	// v becomes a view over src: the text now resolves a view, and a
	// SELECT that resolves a view is never cached.
	mustExec(t, b, "DROP TABLE v")
	mustExec(t, b, "CREATE VIEW v AS SELECT x FROM src WHERE x > 1")
	res := checkStmtCached(t, a, q, false)
	if res.Rel.CountAt(res.At) != 2 {
		t.Fatalf("view not seen:\n%s", answerString(res))
	}
	checkStmtCached(t, a, q, false)
	if _, ok := a.stmts[q]; ok {
		t.Fatal("view-resolving SELECT was cached")
	}

	// And back to a table once the view is dropped.
	if err := a.eng.DropView("v"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, b, "CREATE TABLE v (x INT)")
	res = checkStmtCached(t, a, q, false)
	if res.Rel.CountAt(res.At) != 0 {
		t.Fatalf("re-created table not seen:\n%s", answerString(res))
	}
	checkStmtCached(t, a, q, true)
}

func TestStmtCacheViewReadsNeverCached(t *testing.T) {
	a, b := stmtCachePair(t, `
		CREATE TABLE pol (uid INT, deg INT);
		CREATE TABLE el (uid INT, deg INT);
		INSERT INTO pol VALUES (1, 25) EXPIRES AT 10;
		INSERT INTO pol VALUES (2, 25) EXPIRES AT 15;
		INSERT INTO el VALUES (1, 75) EXPIRES AT 5;
		CREATE VIEW onlypol WITH (patching) AS SELECT uid FROM pol EXCEPT SELECT uid FROM el;
	`)
	for tick := 0; tick < 12; tick += 4 {
		mustExec(t, b, fmt.Sprintf("ADVANCE TO %d", tick))
		for _, q := range []string{
			"SELECT * FROM onlypol",
			"SELECT onlypol.uid FROM onlypol JOIN pol ON onlypol.uid = pol.uid",
		} {
			checkStmtCached(t, a, q, false)
		}
	}
	if len(a.stmts) != 0 {
		t.Fatalf("view-resolving SELECTs cached: %d entries", len(a.stmts))
	}
}

func TestStmtCacheSetPolicy(t *testing.T) {
	a, _ := stmtCachePair(t, `
		CREATE TABLE pol (uid INT, deg INT);
		INSERT INTO pol VALUES (1, 25) EXPIRES AT 10;
		INSERT INTO pol VALUES (2, 25) EXPIRES AT 15;
		INSERT INTO pol VALUES (3, 35) EXPIRES AT 10;
	`)
	// MAX(uid) of deg 25 is 2 until tick 15: the exact policy keeps the
	// group's row until then, the naive one only until its first member
	// expires at 10.
	const q = "SELECT deg, MAX(uid) FROM pol GROUP BY deg"
	exact := answerString(checkStmtCached(t, a, q, false))
	checkStmtCached(t, a, q, true)
	mustExec(t, a, "SET POLICY naive")
	naive := answerString(checkStmtCached(t, a, q, false))
	if naive == exact {
		t.Fatalf("SET POLICY did not change the answer's expiration times:\n%s", naive)
	}
	checkStmtCached(t, a, q, true)
	mustExec(t, a, "SET POLICY exact")
	if got := answerString(checkStmtCached(t, a, q, false)); got != exact {
		t.Fatalf("exact policy again:\ngot:\n%swant:\n%s", got, exact)
	}
}

func TestStmtCacheClearedByAnalyze(t *testing.T) {
	a, _ := stmtCachePair(t, `
		CREATE TABLE ev (k INT, v INT);
		INSERT INTO ev VALUES (1, 1), (2, 2), (3, 3) EXPIRES AT 40;
	`)
	const q = "SELECT * FROM ev WHERE v > 1"
	checkStmtCached(t, a, q, false)
	checkStmtCached(t, a, q, true)
	mustExec(t, a, "EXPLAIN ANALYZE SELECT * FROM ev WHERE k = 2")
	if len(a.stmts) != 0 {
		t.Fatal("EXPLAIN ANALYZE harvest left the statement cache filled")
	}
	checkStmtCached(t, a, q, false) // re-planned
	checkStmtCached(t, a, q, true)
}

// TestStmtCacheBounded checks the size bound and the eviction order: a
// text run every hundred statements survives a stream of one-off texts
// that overflows the cache, and the oldest one-off texts are evicted.
func TestStmtCacheBounded(t *testing.T) {
	a, _ := stmtCachePair(t, "CREATE TABLE t (x INT); INSERT INTO t VALUES (1) EXPIRES AT 9")
	const hot = "SELECT * FROM t WHERE x = -1"
	cold := func(i int) string { return fmt.Sprintf("SELECT * FROM t WHERE x = %d", i) }
	for i := 0; i < stmtCacheSize+100; i++ {
		mustExec(t, a, cold(i))
		if i%100 == 0 {
			mustExec(t, a, hot)
		}
	}
	if n := len(a.stmts); n != stmtCacheSize || a.stmtLRU.Len() != n {
		t.Fatalf("statement cache holds %d entries (list %d), want the bound %d", n, a.stmtLRU.Len(), stmtCacheSize)
	}
	for text, want := range map[string]bool{hot: true, cold(0): false, cold(100): false, cold(stmtCacheSize + 99): true} {
		if _, ok := a.stmts[text]; ok != want {
			t.Fatalf("%q cached = %v, want %v", text, ok, want)
		}
	}
	m := a.m.Snapshot()
	if m.StmtCacheHits != 11 || m.StmtCacheMisses != stmtCacheSize+101 {
		t.Fatalf("hits/misses = %d/%d, want 11/%d", m.StmtCacheHits, m.StmtCacheMisses, stmtCacheSize+101)
	}
}

// TestStmtCacheConcurrentDDL runs cached SELECTs in one session while a
// second session keeps dropping and re-creating the table, with and
// without an index, on another goroutine. Run under -race it checks the
// statement cache shares no unsynchronised state with DDL; every answer
// must be a well-formed read of one of the table's two incarnations.
func TestStmtCacheConcurrentDDL(t *testing.T) {
	a, b := stmtCachePair(t, "CREATE TABLE t (x INT, y INT); INSERT INTO t VALUES (1, 2) EXPIRES AT 99")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			script := "DROP TABLE t; CREATE TABLE t (x INT, y INT); INSERT INTO t VALUES (1, 2) EXPIRES AT 99"
			if i%2 == 1 {
				script = "DROP TABLE t; CREATE TABLE t (x INT, y INT, z INT); CREATE INDEX t_x ON t (x); INSERT INTO t VALUES (1, 2, 3) EXPIRES AT 99"
			}
			if _, err := b.ExecScript(script); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Failures are reported after the DDL goroutine has finished.
	var bad error
	for i := 0; i < 2000 && bad == nil; i++ {
		res, err := a.Exec("SELECT * FROM t WHERE x = 1")
		if err != nil {
			continue // the table may be between DROP and CREATE
		}
		rows, arity := res.Rows(), res.Rel.Schema().Arity()
		switch {
		case len(rows) > 1:
			bad = fmt.Errorf("read %d rows, want at most 1", len(rows))
		case arity != 2 && arity != 3:
			bad = fmt.Errorf("arity %d", arity)
		case len(rows) == 1 && len(rows[0].Tuple) != arity:
			bad = fmt.Errorf("row %s does not fit schema %s", rows[0].Tuple, res.Rel.Schema())
		}
	}
	wg.Wait()
	if bad != nil {
		t.Fatal(bad)
	}
}
