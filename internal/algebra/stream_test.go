package algebra

import (
	"math/rand"
	"sync"
	"testing"

	"expdb/internal/relation"
	"expdb/internal/tuple"
	"expdb/internal/value"
	"expdb/internal/xtime"
)

// checkRandomTrees evaluates 300 random monotonic (or 300 non-monotonic)
// trees through EvalStream and Eval, inline and on a forced pool of four
// workers, and verifies both results against the snapshot oracle.
func checkRandomTrees(t *testing.T, seed int64, monotonic bool) {
	prev := SetParallelism(1)
	defer SetParallelism(prev)
	for _, par := range []int{1, 4} {
		SetParallelism(par)
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 300; {
			bases := []*Base{randRel(rng, "R"), randRel(rng, "S"), randRel(rng, "T")}
			e := randExpr(rng, bases, 1+rng.Intn(3), monotonic)
			if e.Monotonic() != monotonic {
				continue
			}
			trial++
			tau := xtime.Time(rng.Intn(10))
			o := newOracle(t, e)
			for _, eval := range []func(Expr, xtime.Time) (*relation.Relation, error){EvalStream, Expr.Eval} {
				got, err := eval(e, tau)
				if err != nil {
					t.Fatalf("parallelism %d trial %d: %v", par, trial, err)
				}
				if d := o.verify(e, tau, got); d != "" {
					t.Fatalf("parallelism %d trial %d: %s at τ=%v: %s\n%s",
						par, trial, e, tau, d, got.Render(tau))
				}
			}
		}
	}
}

// TestStreamEvalEquivalenceRandom: on random monotonic trees, EvalStream
// and Eval return the snapshot answer with the oracle's per-tuple
// expiration times, at one worker and at four.
func TestStreamEvalEquivalenceRandom(t *testing.T) {
	checkRandomTrees(t, 51, true)
}

// TestStreamEvalEquivalenceNonMonotonic: the same over trees with
// aggregation and difference; the pipeline breakers collect their children
// from streams, and the result must show the snapshot answer until
// texp(e).
func TestStreamEvalEquivalenceNonMonotonic(t *testing.T) {
	checkRandomTrees(t, 52, false)
}

// bigRel builds a base relation large enough (≥ 2·streamChunk rows) that
// the parallel chunked paths actually engage.
func bigRel(rng *rand.Rand, name string, n int) *Base {
	r := relation.New(tuple.IntCols("a", "b"))
	for i := 0; i < n; i++ {
		texp := xtime.Time(1 + rng.Intn(50))
		if rng.Intn(10) == 0 {
			texp = xtime.Infinity
		}
		r.MustInsertInts(texp, int64(rng.Intn(100)), int64(rng.Intn(20)))
	}
	return NewBase(name, r)
}

// TestStreamParallelEquivalence forces a multi-worker pool on inputs big
// enough to chunk, covering the fused parallel base scan (σ over a base)
// and the parallel hash-join probe, and checks the results against the
// snapshot oracle.
func TestStreamParallelEquivalence(t *testing.T) {
	prev := SetParallelism(4)
	defer SetParallelism(prev)

	rng := rand.New(rand.NewSource(53))
	n := 4 * streamChunk
	l := bigRel(rng, "L", n)
	r := bigRel(rng, "S", n)

	sel, err := NewSelect(ColConst{Col: 1, Op: OpLt, Const: value.Int(10)}, l)
	if err != nil {
		t.Fatal(err)
	}
	join, err := EquiJoin(l, 0, r, 0)
	if err != nil {
		t.Fatal(err)
	}
	selJoin, err := NewSelect(ColConst{Col: 1, Op: OpGe, Const: value.Int(5)}, join)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(t, sel, join, selJoin)
	for _, e := range []Expr{sel, join, selJoin} {
		for _, tau := range []xtime.Time{0, 7, 25} {
			got, err := EvalStream(e, tau)
			if err != nil {
				t.Fatal(err)
			}
			if d := o.verify(e, tau, got); d != "" {
				t.Fatalf("parallel stream of %s at τ=%v: %s", e, tau, d)
			}
		}
	}
}

// TestParallelFilterMapOrder: the merge is deterministic — rows come out
// in input order no matter how the workers are scheduled.
func TestParallelFilterMapOrder(t *testing.T) {
	prev := SetParallelism(8)
	defer SetParallelism(prev)

	n := 10*streamChunk + 37 // deliberately not a chunk multiple
	rows := make([]relation.Row, n)
	for i := range rows {
		rows[i] = relation.Row{Tuple: tuple.Ints(int64(i)), Texp: xtime.Infinity}
	}
	for rep := 0; rep < 5; rep++ {
		var got []int64
		parallelFilterMap(rows, func(row relation.Row, out *[]relation.Row) {
			if row.Tuple[0].AsInt()%2 == 0 {
				*out = append(*out, row)
			}
		}, func(row relation.Row) {
			got = append(got, row.Tuple[0].AsInt())
		})
		if len(got) != n/2+1 {
			t.Fatalf("rep %d: %d rows, want %d", rep, len(got), n/2+1)
		}
		for i, v := range got {
			if v != int64(2*i) {
				t.Fatalf("rep %d: out-of-order merge at %d: got %d want %d", rep, i, v, 2*i)
			}
		}
	}
}

// TestStreamConcurrent runs streaming queries over shared base relations
// from many goroutines with a forced worker pool — under -race this
// exercises the immutable-tuple sharing, the frozen join index and the
// pooled key buffers for data races — and checks every result against
// the snapshot oracle.
func TestStreamConcurrent(t *testing.T) {
	prev := SetParallelism(4)
	defer SetParallelism(prev)

	rng := rand.New(rand.NewSource(54))
	l := bigRel(rng, "L", 3*streamChunk)
	r := bigRel(rng, "S", 3*streamChunk)
	join, err := EquiJoin(l, 0, r, 0)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(t, join)
	o.leave(join, 5) // fill the memo before the goroutines share it

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				got, err := EvalStream(join, 5)
				if err != nil {
					errs <- err
					return
				}
				if d := o.verify(join, 5, got); d != "" {
					t.Errorf("concurrent stream diverged from the oracle: %s", d)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSetParallelism: the bound round-trips and n ≤ 0 restores the
// GOMAXPROCS default.
func TestSetParallelism(t *testing.T) {
	orig := Parallelism()
	if prev := SetParallelism(3); prev != orig {
		t.Fatalf("SetParallelism returned %d, want %d", prev, orig)
	}
	if got := Parallelism(); got != 3 {
		t.Fatalf("Parallelism = %d, want 3", got)
	}
	SetParallelism(0)
	if got := Parallelism(); got < 1 {
		t.Fatalf("Parallelism = %d after reset", got)
	}
}
