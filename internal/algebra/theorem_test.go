package algebra

import (
	"math/rand"
	"testing"

	"expdb/internal/relation"
	"expdb/internal/tuple"
	"expdb/internal/value"
	"expdb/internal/xtime"
)

// randRel builds a random 2-column relation over a tiny value domain so
// that overlaps (shared tuples across relations, duplicate projections,
// joinable keys) are common.
func randRel(rng *rand.Rand, name string) *Base {
	r := relation.New(tuple.IntCols("a", "b"))
	n := 1 + rng.Intn(8)
	for i := 0; i < n; i++ {
		texp := xtime.Time(1 + rng.Intn(20))
		if rng.Intn(8) == 0 {
			texp = xtime.Infinity
		}
		r.MustInsertInts(texp, int64(rng.Intn(4)), int64(rng.Intn(4)))
	}
	return NewBase(name, r)
}

// randExpr builds a random expression of the given depth over the bases.
// With monotonicOnly it draws only operators (1)–(6).
func randExpr(rng *rand.Rand, bases []*Base, depth int, monotonicOnly bool) Expr {
	if depth == 0 {
		return bases[rng.Intn(len(bases))]
	}
	child := func() Expr { return randExpr(rng, bases, depth-1, monotonicOnly) }
	limit := 8
	if monotonicOnly {
		limit = 6
	}
	for {
		switch rng.Intn(limit) {
		case 0:
			c := child()
			pred := randPred(rng, c.Schema().Arity())
			s, err := NewSelect(pred, c)
			if err != nil {
				continue
			}
			return s
		case 1:
			c := child()
			cols := randCols(rng, c.Schema().Arity())
			p, err := NewProject(cols, c)
			if err != nil {
				continue
			}
			return p
		case 2:
			l, r := child(), child()
			if l.Schema().Arity()+r.Schema().Arity() > 6 {
				continue // keep arities small
			}
			return NewProduct(l, r)
		case 3:
			l, r := child(), child()
			u, err := NewUnion(l, r)
			if err != nil {
				continue
			}
			return u
		case 4:
			l, r := child(), child()
			x, err := NewIntersect(l, r)
			if err != nil {
				continue
			}
			return x
		case 5:
			l, r := child(), child()
			if l.Schema().Arity()+r.Schema().Arity() > 6 {
				continue
			}
			j, err := EquiJoin(l, 0, r, 0)
			if err != nil {
				continue
			}
			return j
		case 6:
			l, r := child(), child()
			d, err := NewDiff(l, r)
			if err != nil {
				continue
			}
			return d
		default:
			c := child()
			f := AggFunc{Kind: AggKind(rng.Intn(5)), Col: 0}
			if f.Kind == AggCount && rng.Intn(2) == 0 {
				f.Col = -1
			}
			policy := AggPolicy(rng.Intn(3))
			group := []int{c.Schema().Arity() - 1}
			a, err := NewAgg(group, []AggFunc{f}, policy, c)
			if err != nil {
				continue
			}
			return a
		}
	}
}

func randPred(rng *rand.Rand, arity int) Predicate {
	c := rng.Intn(arity)
	switch rng.Intn(3) {
	case 0:
		return ColConst{Col: c, Op: CmpOp(rng.Intn(6)), Const: value.Int(int64(rng.Intn(4)))}
	case 1:
		return ColCol{Left: c, Right: rng.Intn(arity), Op: CmpOp(rng.Intn(6))}
	default:
		return And{Preds: []Predicate{
			ColConst{Col: c, Op: OpGe, Const: value.Int(0)},
			ColConst{Col: rng.Intn(arity), Op: OpLt, Const: value.Int(int64(rng.Intn(5)))},
		}}
	}
}

func randCols(rng *rand.Rand, arity int) []int {
	n := 1 + rng.Intn(arity)
	cols := make([]int, n)
	for i := range cols {
		cols[i] = rng.Intn(arity)
	}
	return cols
}

// TestTheorem1Random: for random monotonic expressions,
// expτ′(e) = expτ′(expτ(e)) for all τ ≤ τ′ — including per-tuple
// expiration times (the property that makes remote maintenance free). The
// left side is the snapshot oracle at τ′.
func TestTheorem1Random(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		bases := []*Base{randRel(rng, "R"), randRel(rng, "S"), randRel(rng, "T")}
		e := randExpr(rng, bases, 1+rng.Intn(3), true)
		tau := xtime.Time(rng.Intn(10))
		mat, err := e.Eval(tau)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		o := newOracle(t, e)
		for tau2 := tau; tau2 <= 24; tau2++ {
			if d := o.verify(e, tau2, mat); d != "" {
				t.Fatalf("trial %d: Theorem 1 violated for %s (materialised %v, checked %v): %s\nmat:\n%s",
					trial, e, tau, tau2, d, mat.Render(tau2))
			}
		}
	}
}

// TestTheorem2Random: for random expressions including aggregation and
// difference, the materialisation shows the snapshot answer at every τ′
// with τ ≤ τ′ < texp(e).
func TestTheorem2Random(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		bases := []*Base{randRel(rng, "R"), randRel(rng, "S"), randRel(rng, "T")}
		e := randExpr(rng, bases, 1+rng.Intn(3), false)
		tau := xtime.Time(rng.Intn(10))
		mat, err := e.Eval(tau)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		texp, err := e.ExprTexp(tau)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if texp <= tau {
			t.Fatalf("trial %d: texp(e) = %v not after materialisation time %v", trial, texp, tau)
		}
		o := newOracle(t, e)
		for tau2 := tau; tau2 <= 24 && tau2 < texp; tau2++ {
			if d := o.sameTuples(e, tau2, mat); d != "" {
				t.Fatalf("trial %d: Theorem 2 violated for %s (materialised %v, texp %v, checked %v): %s\nmat:\n%s",
					trial, e, tau, texp, tau2, d, mat.Render(tau2))
			}
		}
	}
}

// TestValidityRandom: the Schrödinger validity intervals must exactly
// characterise when the materialisation shows the snapshot answer, for
// arbitrary expressions, and must contain [τ, texp(e)[.
func TestValidityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		bases := []*Base{randRel(rng, "R"), randRel(rng, "S")}
		e := randExpr(rng, bases, 1+rng.Intn(2), false)
		tau := xtime.Time(rng.Intn(6))
		mat, err := e.Eval(tau)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		v, err := e.Validity(tau)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		texp, err := e.ExprTexp(tau)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		o := newOracle(t, e)
		for tau2 := tau; tau2 <= 26; tau2++ {
			d := o.sameTuples(e, tau2, mat)
			if v.Contains(tau2) && d != "" {
				t.Fatalf("trial %d: %s claims valid at %v but diverges (materialised %v): %s\nI = %s\nmat:\n%s",
					trial, e, tau2, tau, d, v, mat.Render(tau2))
			}
			if tau2 < texp && !v.Contains(tau2) {
				t.Fatalf("trial %d: %s validity %s excludes %v < texp(e) = %v",
					trial, e, v, tau2, texp)
			}
		}
	}
}
