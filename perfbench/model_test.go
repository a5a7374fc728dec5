package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"expdb/internal/interval"
	"expdb/internal/relation"
	"expdb/internal/sql"
	"expdb/internal/tuple"
	"expdb/internal/xtime"
)

// testModel holds four rows of client 1: sequence numbers 0..3 expiring
// at ticks 10, 20, 30, 40.
func testModel() *keyModel {
	m := newKeyModel(1, 100, true)
	for s := int64(0); s < 4; s++ {
		m.add(s, xtime.Time(10*(s+1)))
	}
	return m
}

// result wraps rows of integers as a query answer at tick at, valid
// from at on.
func result(at xtime.Time, rows []relation.Row) *sql.Result {
	names := []string{"c0", "c1"}
	if len(rows) > 0 {
		names = []string{"c0", "c1", "c2"}[:len(rows[0].Tuple)]
	}
	rel := relation.New(tuple.IntCols(names...))
	for _, r := range rows {
		rel.Insert(r.Tuple, r.Texp)
	}
	return &sql.Result{Rel: rel, At: at, Validity: interval.Validity{At: at, ValidUntil: xtime.Infinity}}
}

// corruptions returns wrong variants of a non-empty answer: a row
// dropped, a row added, a value changed and an expiration time changed.
func corruptions(rows []relation.Row) map[string][]relation.Row {
	cp := func() []relation.Row {
		out := make([]relation.Row, len(rows))
		for i, r := range rows {
			out[i] = relation.Row{Tuple: r.Tuple.Clone(), Texp: r.Texp}
		}
		return out
	}
	dropped := cp()[1:]
	added := append(cp(), relation.Row{Tuple: tuple.Ints(make([]int64, len(rows[0].Tuple))...), Texp: 99})
	value := cp()
	value[0].Tuple[len(value[0].Tuple)-1] = tuple.Ints(-7)[0]
	texp := cp()
	texp[0].Texp++
	return map[string][]relation.Row{"dropped row": dropped, "added row": added, "wrong value": value, "wrong texp": texp}
}

func TestCheckersRejectCorruptedAnswers(t *testing.T) {
	m := testModel()
	lo, hi := int64(100), int64(200) // client 1's whole band
	const at = 15
	cases := map[string][]relation.Row{
		"point":     append(m.wantPoint(2, at, &rowList{}), m.wantPoint(3, at, &rowList{})...), // two rows so one can be dropped
		"range":     m.wantRange(lo, hi, at, &rowList{}),
		"aggregate": append(m.wantAgg(lo, hi, at, &rowList{}), m.wantPoint(3, at, &rowList{})...),
	}
	if n := len(m.wantRange(lo, hi, at, &rowList{})); n != 3 {
		t.Fatalf("range at %d has %d rows, want 3", at, n)
	}
	if agg := m.wantAgg(lo, hi, at, &rowList{}); len(agg) != 1 || agg[0].Texp != 20 || agg[0].Tuple[0].AsInt() != 3 {
		t.Fatalf("aggregate %v", agg)
	}
	var sc scratch
	for name, want := range cases {
		if err := sc.checkAnswer(result(at, want), want); err != nil {
			t.Errorf("%s: correct answer rejected: %v", name, err)
		}
		for what, bad := range corruptions(want) {
			if sc.checkAnswer(result(at, bad), want) == nil {
				t.Errorf("%s: %s accepted", name, what)
			}
		}
	}
}

func TestCheckerRejectsExpiredRowsAndBadStamps(t *testing.T) {
	m := testModel()
	// Sequence 0 expires at 10: alive at 9, gone at 10.
	if len(m.wantPoint(0, 9, &rowList{})) != 1 || len(m.wantPoint(0, 10, &rowList{})) != 0 {
		t.Fatal("model expiry boundary")
	}
	alive := m.wantPoint(0, 9, &rowList{})
	stale := []relation.Row{{Tuple: alive[0].Tuple, Texp: 11}}
	var sc scratch
	if sc.checkAnswer(result(10, stale), m.wantPoint(0, 10, &rowList{})) == nil {
		t.Error("a row past its expiration time was accepted")
	}
	res := result(9, alive)
	res.Validity = interval.Validity{At: 0, ValidUntil: 9}
	if sc.checkAnswer(res, alive) == nil {
		t.Error("an answer outside its validity window was accepted")
	}
}

func TestSameAnswerChecker(t *testing.T) {
	m := testModel()
	want := m.wantRange(100, 200, 5, &rowList{})
	base := result(5, want)
	if err := checkSameAnswer(result(5, want).Rel, 5, base); err != nil {
		t.Fatalf("identical answers rejected: %v", err)
	}
	for what, bad := range corruptions(want) {
		err := checkSameAnswer(result(5, bad).Rel, 5, base)
		if what == "wrong texp" {
			// Views may carry later expiration times than a fresh
			// evaluation; only the tuples are compared.
			if err != nil {
				t.Errorf("%s rejected: %v", what, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s accepted", what)
		}
	}
	if checkSameAnswer(result(6, want).Rel, 6, base) == nil {
		t.Error("answers from different ticks compared")
	}
}

// TestChecksAllocateNothing pins that building a statement allocates
// only its string and that checking an answer against the key model
// allocates nothing, so that with two clients allocs_per_op counts the
// program's allocations and not the benchmark's.
func TestChecksAllocateNothing(t *testing.T) {
	m := testModel()
	c := newClient(1, 1, nil, &failures{})
	if n := testing.AllocsPerRun(100, func() {
		_ = c.lit("SELECT * FROM t WHERE v >= ").num(m.key(3)).lit(" AND v < ").num(1 << 40).text()
	}); n != 1 {
		t.Errorf("building a statement: %.1f allocations, want 1 (its string)", n)
	}
	const at = 15
	lo, hi := int64(100), int64(200)
	point := result(at, m.wantPoint(2, at, &rowList{}))
	empty := result(at, nil)
	rng := result(at, m.wantRange(lo, hi, at, &rowList{}))
	agg := result(at, m.wantAgg(lo, hi, at, &rowList{}))
	for name, fn := range map[string]func(){
		"point": func() {
			c.check("point", func() error { return c.sc.checkAnswer(point, m.wantPoint(2, at, &c.sc.want)) })
		},
		"missing point": func() {
			c.check("point", func() error { return c.sc.checkAnswer(empty, m.wantPoint(0, at, &c.sc.want)) })
		},
		"range": func() {
			c.check("range", func() error { return c.sc.checkAnswer(rng, m.wantRange(lo, hi, at, &c.sc.want)) })
		},
		"aggregate": func() {
			c.check("aggregate", func() error { return c.sc.checkAnswer(agg, m.wantAgg(lo, hi, at, &c.sc.want)) })
		},
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s check: %.1f allocations, want 0", name, n)
		}
	}
	if c.bad.n.Load() != 0 {
		t.Fatalf("correct answers rejected: %v", c.bad.msgs)
	}
}

// TestRecoveryCheckerRejectsLostWrite runs durable-ingest briefly, then
// forges an acknowledged write the database never saw: the check after
// reopening must fail.
func TestRecoveryCheckerRejectsLostWrite(t *testing.T) {
	cfg := &config{seed: 1, outDir: t.TempDir(), bad: &failures{}}
	w, inst, err := newDurableIngest(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runPhase(inst.eng, inst.clients, 200*time.Millisecond, false, inst.loop)
	if cfg.bad.n.Load() != 0 {
		t.Fatalf("wrong answers before the forged write: %v", cfg.bad.msgs)
	}
	w.models[0].add(w.models[0].next(), w.now+1000)
	if err := inst.finish(map[string]float64{}, map[string]float64{}); err != nil {
		t.Fatal(err)
	}
	if cfg.bad.n.Load() == 0 {
		t.Fatal("a lost acknowledged write passed the recovery check")
	}
}

// TestWorkloadsRunCorrectly runs every workload briefly, untraced and
// traced, and requires a correct result line.
func TestWorkloadsRunCorrectly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	// Runs this short (and slower under -race) may have too few samples
	// for a percentile; TestBlockMedians covers those.
	sp := &spec{
		EndToEnd: []specMetric{{"setup_s", "s"}, {"ops_per_s", "1/s"}, {"heap_mb", "MiB"}, {"allocs_per_op", "count"}},
		PerLayer: []specMetric{{"sql.parse_us", "us"}, {"wal.sync_us", "us"}},
	}
	for name, w := range workloads {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			cfg := &config{workload: name, seed: 3, seconds: 2, trace: trace, outDir: t.TempDir(), bad: &failures{}}
			if err := runWorkload(w, cfg, sp, &out); err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", name, trace, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int64
				Metrics           map[string]struct{ Value float64 }
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not a result: %v", name, err)
			}
			wantMetrics := 4
			if trace {
				wantMetrics = 2
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 || len(res.Metrics) != wantMetrics {
				t.Errorf("%s trace=%v: %+v", name, trace, res)
			}
		}
	}
}
