package sql

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"expdb/internal/engine"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// explainGoldenScript builds a small database whose plans exercise every
// costed decision EXPLAIN reports: a hash probe, an ordered probe with a
// residual, a scan that beats (and lists) the probes it rejected, and a
// three-table join chain the planner reorders.
const explainGoldenScript = `
	CREATE TABLE ev  (k INT, v INT, c INT);
	CREATE TABLE dim (k INT, tag INT);
	CREATE TABLE tiny (k INT, w INT);
	INSERT INTO ev VALUES (1, 10, 100), (2, 20, 200), (3, 30, 300), (4, 40, 400),
		(5, 50, 500), (6, 60, 600), (7, 70, 700), (8, 80, 800) EXPIRES AT 50;
	INSERT INTO ev VALUES (9, 90, 900), (10, 15, 150), (11, 25, 250), (12, 35, 350) EXPIRES AT 20;
	INSERT INTO dim VALUES (1, 1), (2, 1), (3, 2), (4, 2), (5, 3) EXPIRES AT 40;
	INSERT INTO tiny VALUES (1, 7), (3, 9) EXPIRES AT 30;
	CREATE INDEX ev_k ON ev (k);
	CREATE INDEX ev_v ON ev (v) USING ORDERED;
	CREATE INDEX tiny_w ON tiny (w) USING ORDERED;
`

// explainGoldenQueries are run in order on one session; EXPLAIN ANALYZE
// feeds harvested actuals into the later plans, so the order matters.
var explainGoldenQueries = []string{
	"EXPLAIN SELECT * FROM ev WHERE k = 3",
	"EXPLAIN SELECT * FROM ev WHERE v >= 20 AND v < 60 AND c > 250",
	"EXPLAIN SELECT * FROM tiny WHERE w > 5",
	`EXPLAIN SELECT ev.k, dim.tag, tiny.w FROM ev
		JOIN dim ON ev.k = dim.k
		JOIN tiny ON dim.k = tiny.k`,
	// A SELECT first, so the next ANALYZE reports a result-cache hit.
	"SELECT * FROM ev WHERE k = 3",
	"EXPLAIN ANALYZE SELECT * FROM ev WHERE k = 3",
	"EXPLAIN ANALYZE SELECT * FROM ev WHERE v >= 20 AND v < 60 AND c > 250",
	"EXPLAIN ANALYZE SELECT * FROM tiny WHERE w > 5",
	`EXPLAIN ANALYZE SELECT ev.k, dim.tag, tiny.w FROM ev
		JOIN dim ON ev.k = dim.k
		JOIN tiny ON dim.k = tiny.k`,
	// After the harvest: the same plans costed from observed rows.
	"EXPLAIN SELECT * FROM ev WHERE v >= 20 AND v < 60 AND c > 250",
	`EXPLAIN SELECT ev.k, dim.tag, tiny.w FROM ev
		JOIN dim ON ev.k = dim.k
		JOIN tiny ON dim.k = tiny.k`,
}

// Wall-clock times and trace IDs differ run to run; everything else in
// an EXPLAIN (ANALYZE) rendering is deterministic.
var (
	goldenWall  = regexp.MustCompile(`wall[= ][0-9.]+[a-zµ]+`)
	goldenTrace = regexp.MustCompile(`trace [0-9a-f]+`)
)

// TestExplainGolden pins the EXPLAIN and EXPLAIN ANALYZE renderings byte
// for byte: the planner builds its human-readable text only under
// EXPLAIN, and that text must not drift from what it always printed.
func TestExplainGolden(t *testing.T) {
	s := NewSession(engine.New(), nil)
	if _, err := s.ExecScript(explainGoldenScript); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, q := range explainGoldenQueries {
		res := mustExec(t, s, q)
		out := goldenWall.ReplaceAllString(res.Msg, "wall=*")
		out = goldenTrace.ReplaceAllString(out, "trace *")
		b.WriteString("> " + strings.Join(strings.Fields(q), " ") + "\n")
		b.WriteString(out + "\n\n")
	}
	path := filepath.Join("testdata", "explain.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("EXPLAIN output drifted from %s (rerun with -update only for an intended change)\ngot:\n%s", path, got)
	}
}
