package algebra

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"testing"

	"expdb/internal/relation"
	"expdb/internal/tuple"
	"expdb/internal/value"
	"expdb/internal/xtime"
)

// This file is the reference the executor is tested against: the paper's
// semantics written down directly, with nothing shared with the operators
// under test. It never calls an operator's Eval or Stream and never builds
// a join index.
//
//   - The answer at τ is the ordinary, non-temporal query over the
//     snapshot expτ of every base relation, with plain set semantics —
//     the snapshot-reducibility property (Dignös et al., PAPERS.md).
//   - For a monotonic tree, the expiration time of an answer tuple is the
//     first instant after τ at which the tuple leaves the snapshot answer
//     (∞ if it never does). By Theorem 1 this is what formulas (1)–(6)
//     assign.
//   - For any tree, a result materialised at τ must show the snapshot
//     answer at every τ′ in [τ, texp(e)) (Theorems 1 and 2).
//
// Snapshots only change at the finite expiration times stored in the base
// relations, so the oracle evaluates at those change points and memoises
// every (node, snapshot) answer.

// answer is a plain set of tuples, keyed by canonKey.
type answer map[string]tuple.Tuple

// canonKey is the set identity of a tuple: the relation set key, with
// floats first rounded to 12 significant digits so that aggregate values
// summed in a different order still compare equal.
func canonKey(t tuple.Tuple) string {
	var b []byte
	for _, v := range t {
		if v.Kind() == value.KindFloat {
			f, _ := strconv.ParseFloat(strconv.FormatFloat(v.AsFloat(), 'g', 12, 64), 64)
			v = value.Float(f)
		}
		b = v.AppendKey(b)
	}
	return string(b)
}

// oracle evaluates expression trees by snapshot semantics. It is safe for
// concurrent use.
type oracle struct {
	t testing.TB
	// changes are the distinct finite expiration times of every base
	// row, ascending: the only instants at which a snapshot changes.
	changes []xtime.Time

	mu     sync.Mutex
	memo   map[oracleKey]answer
	leaves map[oracleKey]map[string]xtime.Time
	// tuples holds one copy of every distinct tuple and its key, shared
	// by all memoised answers.
	tuples map[string]interned
}

type interned struct {
	key string
	t   tuple.Tuple
}

type oracleKey struct {
	e  Expr
	at xtime.Time
}

// newOracle prepares an oracle for the given trees; their base relations
// must not change while it is in use.
func newOracle(t testing.TB, roots ...Expr) *oracle {
	o := &oracle{
		t:      t,
		memo:   map[oracleKey]answer{},
		leaves: map[oracleKey]map[string]xtime.Time{},
		tuples: map[string]interned{},
	}
	seen := map[xtime.Time]bool{}
	for _, root := range roots {
		Walk(root, func(x Expr) {
			if b, ok := x.(*Base); ok {
				b.Rel.All(func(row relation.Row) {
					if row.Texp.IsFinite() && !seen[row.Texp] {
						seen[row.Texp] = true
						o.changes = append(o.changes, row.Texp)
					}
				})
			}
		})
	}
	sort.Slice(o.changes, func(i, j int) bool { return o.changes[i] < o.changes[j] })
	return o
}

// snapshotOf maps tau to the last change point at or before it: expτ of
// every base equals exp of that instant, so both share one memo entry.
func (o *oracle) snapshotOf(tau xtime.Time) xtime.Time {
	i := sort.Search(len(o.changes), func(i int) bool { return o.changes[i] > tau })
	if i == 0 {
		return tau
	}
	return o.changes[i-1]
}

// horizon is the instant from which every snapshot is final.
func (o *oracle) horizon() xtime.Time {
	if len(o.changes) == 0 {
		return 0
	}
	return o.changes[len(o.changes)-1]
}

// at returns the answer of e over the snapshot at tau. Answers are never
// modified once built, so callers may read them without the lock.
func (o *oracle) at(e Expr, tau xtime.Time) answer {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.atLocked(e, tau)
}

func (o *oracle) atLocked(e Expr, tau xtime.Time) answer {
	k := oracleKey{e, o.snapshotOf(tau)}
	a, ok := o.memo[k]
	if !ok {
		a = o.eval(e, k.at)
		o.memo[k] = a
	}
	return a
}

func (o *oracle) eval(e Expr, tau xtime.Time) answer {
	out := answer{}
	switch x := e.(type) {
	case *Base:
		x.Rel.AliveAt(tau, func(row relation.Row) { o.put(out, row.Tuple) })
	case *Select:
		for _, t := range o.atLocked(x.Child, tau) {
			if x.Pred.Holds(t) {
				o.put(out, t)
			}
		}
	case *Project:
		for _, t := range o.atLocked(x.Child, tau) {
			o.put(out, t.Project(x.Cols))
		}
	case *Product:
		o.nestedLoop(out, o.atLocked(x.Left, tau), o.atLocked(x.Right, tau), True{})
	case *Join:
		o.nestedLoop(out, o.atLocked(x.Left, tau), o.atLocked(x.Right, tau), x.Pred)
	case *Union:
		for _, t := range o.atLocked(x.Left, tau) {
			o.put(out, t)
		}
		for _, t := range o.atLocked(x.Right, tau) {
			o.put(out, t)
		}
	case *Intersect:
		r := o.atLocked(x.Right, tau)
		for k, t := range o.atLocked(x.Left, tau) {
			if _, ok := r[k]; ok {
				o.put(out, t)
			}
		}
	case *Diff:
		r := o.atLocked(x.Right, tau)
		for k, t := range o.atLocked(x.Left, tau) {
			if _, ok := r[k]; !ok {
				o.put(out, t)
			}
		}
	case *Agg:
		o.aggregate(out, x, o.atLocked(x.Child, tau))
	default:
		o.t.Fatalf("oracle: no snapshot semantics for %T", e)
	}
	return out
}

// put adds t to a. Every distinct tuple and key is stored once, however
// many snapshot answers hold it; t itself is never retained.
func (o *oracle) put(a answer, t tuple.Tuple) {
	k := canonKey(t)
	c, ok := o.tuples[k]
	if !ok {
		c = interned{key: k, t: t.Clone()}
		o.tuples[k] = c
	}
	a[c.key] = c.t
}

// nestedLoop adds every concatenation l ++ r satisfying p.
func (o *oracle) nestedLoop(out, left, right answer, p Predicate) {
	var buf tuple.Tuple
	for _, l := range left {
		buf = append(buf[:0], l...)
		for _, r := range right {
			buf = append(buf[:len(l)], r...)
			if p.Holds(buf) {
				o.put(out, buf)
			}
		}
	}
}

// aggregate is formula (7) with SQL's aggregate functions: every input
// tuple extended with the values of its partition.
func (o *oracle) aggregate(out answer, a *Agg, in answer) {
	parts := map[string][]tuple.Tuple{}
	for _, t := range in {
		k := canonKey(t.Project(a.GroupCols))
		parts[k] = append(parts[k], t)
	}
	for _, part := range parts {
		vals := make([]value.Value, len(a.Funcs))
		for i, f := range a.Funcs {
			vals[i] = sqlAggregate(f, part)
		}
		for _, t := range part {
			o.put(out, append(t[:len(t):len(t)], vals...))
		}
	}
}

// sqlAggregate applies f to a non-empty partition: NULLs are ignored,
// an all-NULL column yields NULL (COUNT yields 0), SUM stays integral
// unless a float is involved, AVG is always a float.
func sqlAggregate(f AggFunc, part []tuple.Tuple) value.Value {
	if f.Kind == AggCount && f.Col < 0 {
		return value.Int(int64(len(part)))
	}
	var vs []value.Value
	for _, t := range part {
		if v := t[f.Col]; !v.IsNull() {
			vs = append(vs, v)
		}
	}
	if f.Kind == AggCount {
		return value.Int(int64(len(vs)))
	}
	if len(vs) == 0 {
		return value.Null
	}
	switch f.Kind {
	case AggSum, AggAvg:
		var sumI int64
		var sumF float64
		float := false
		for _, v := range vs {
			float = float || v.Kind() == value.KindFloat
			sumI += v.AsInt()
			sumF += v.AsFloat()
		}
		if f.Kind == AggAvg {
			return value.Float(sumF / float64(len(vs)))
		}
		if float {
			return value.Float(sumF)
		}
		return value.Int(sumI)
	default:
		best := vs[0]
		for _, v := range vs[1:] {
			if c := v.Compare(best); (f.Kind == AggMin && c < 0) || (f.Kind == AggMax && c > 0) {
				best = v
			}
		}
		return best
	}
}

// leave returns, for each tuple of the answer at tau, the first instant
// after tau at which it is no longer in the answer, or ∞ — its expiration
// time when e is monotonic.
func (o *oracle) leave(e Expr, tau xtime.Time) map[string]xtime.Time {
	o.mu.Lock()
	defer o.mu.Unlock()
	k := oracleKey{e, tau}
	if m, ok := o.leaves[k]; ok {
		return m
	}
	now := o.atLocked(e, tau)
	m := make(map[string]xtime.Time, len(now))
	for key := range now {
		m[key] = xtime.Infinity
	}
	pending := len(now)
	for _, c := range o.changes {
		if pending == 0 {
			break
		}
		if c <= tau {
			continue
		}
		later := o.atLocked(e, c)
		for key, texp := range m {
			if _, in := later[key]; !in && texp == xtime.Infinity {
				m[key] = c
				pending--
			}
		}
	}
	o.leaves[k] = m
	return m
}

// sameTuples reports how got's tuples alive at tau differ from the
// snapshot answer of e at tau, or "" when they are the same set.
func (o *oracle) sameTuples(e Expr, tau xtime.Time, got *relation.Relation) string {
	return diffAnswer(canonRows(got), tau, o.at(e, tau))
}

// verify checks got, the result of e computed at tau, against the oracle
// and describes the first mismatch, or returns "":
//
//  1. got's rows at tau are the snapshot answer at tau;
//  2. for a monotonic e, each row's texp is the instant its tuple leaves
//     the snapshot answer;
//  3. got, seen at each τ′ in [tau, texp(e)), shows the snapshot answer
//     at τ′.
func (o *oracle) verify(e Expr, tau xtime.Time, got *relation.Relation) string {
	rows := canonRows(got)
	if d := diffAnswer(rows, tau, o.at(e, tau)); d != "" {
		return fmt.Sprintf("rows at τ=%v: %s", tau, d)
	}
	if e.Monotonic() {
		leave := o.leave(e, tau)
		for k, texp := range rows {
			if texp > tau && texp != leave[k] {
				return fmt.Sprintf("texp at τ=%v is %v, want %v%s",
					tau, texp, leave[k], describeKey(got, k))
			}
		}
	}
	texpE, err := e.ExprTexp(tau)
	if err != nil {
		return err.Error()
	}
	for tau2 := tau + 1; tau2 < texpE && tau2 <= o.horizon(); tau2++ {
		if d := diffAnswer(rows, tau2, o.at(e, tau2)); d != "" {
			return fmt.Sprintf("result at τ=%v seen at τ′=%v (texp(e)=%v): %s", tau, tau2, texpE, d)
		}
	}
	return ""
}

// canonRows maps the canonical key of every stored row of r to its texp.
func canonRows(r *relation.Relation) map[string]xtime.Time {
	rows := map[string]xtime.Time{}
	r.All(func(row relation.Row) {
		k := canonKey(row.Tuple)
		if row.Texp > rows[k] {
			rows[k] = row.Texp
		}
	})
	return rows
}

// diffAnswer compares the rows alive at tau with want.
func diffAnswer(rows map[string]xtime.Time, tau xtime.Time, want answer) string {
	n := 0
	for _, texp := range rows {
		if texp > tau {
			n++
		}
	}
	for k, t := range want {
		if rows[k] <= tau {
			return fmt.Sprintf("missing %v (%d rows, want %d)", t, n, len(want))
		}
	}
	if n != len(want) {
		return fmt.Sprintf("%d rows, want %d: extra tuples", n, len(want))
	}
	return ""
}

// describeKey names the tuple of r stored under canonical key k.
func describeKey(r *relation.Relation, k string) string {
	var s string
	r.All(func(row relation.Row) {
		if canonKey(row.Tuple) == k {
			s = " (tuple " + row.Tuple.String() + ")"
		}
	})
	return s
}
