package algebra

import (
	"expdb/internal/relation"
	"expdb/internal/tuple"
	"expdb/internal/xtime"
)

// This file implements the executor: operators push rows through the tree
// one at a time instead of materialising a relation per node (see
// DESIGN.md "Execution engine"). It is the only implementation of σ, π, ×,
// ∪, ⋈ and ∩; their Eval methods collect their own stream via EvalStream.
//
// Correctness of streaming without per-operator duplicate elimination: a
// stream may carry several rows with equal tuples and different expiration
// times where the set semantics of formulas (1)–(6) hold one row with the
// maximum. Every monotonic operator either passes expiration times through
// (σ, π) or combines them with min (×, ⋈, ∩), and duplicate elimination
// takes max — and max_i min(a_i, s) = min(max_i a_i, s), so deduplicating
// once at the top (EvalStream's collector, or any relation the rows are
// inserted into) yields exactly the per-operator set result. Non-monotonic
// operators (Agg, Diff) do need set input and therefore act as pipeline
// breakers: StreamExpr falls back to their Eval, which collects each child
// through EvalStream.

// Streamer is implemented by operators able to produce their result as a
// push stream. Stream calls emit once per result row at time tau; rows
// with equal tuples may be emitted more than once (see above). Emitted
// tuples are shared storage — the immutability invariant of
// relation.Relation applies — and emit runs on the calling goroutine, so
// it needs no internal locking.
type Streamer interface {
	Stream(tau xtime.Time, emit func(relation.Row)) error
}

// StreamExpr streams the result of e at tau into emit. Expressions that do
// not implement Streamer (pipeline breakers like Agg and Diff, or wrapper
// nodes such as EXPLAIN ANALYZE's instrumentation) are evaluated and their
// result pushed row by row, so any tree streams.
func StreamExpr(e Expr, tau xtime.Time, emit func(relation.Row)) error {
	if s, ok := e.(Streamer); ok {
		return s.Stream(tau, emit)
	}
	rel, err := e.Eval(tau)
	if err != nil {
		return err
	}
	rel.AliveAt(tau, emit)
	return nil
}

// EvalStream computes e at tau, collecting its stream into a relation.
// The collector's duplicate handling (max texp wins) is the single point
// of duplicate elimination for the whole monotonic pipeline. It is the
// one evaluation entry point: the engine, views and the SQL layer call
// it, and the Eval of every streaming operator is EvalStream on itself.
// The reference for its answers is the snapshot oracle of oracle_test.go.
func EvalStream(e Expr, tau xtime.Time) (*relation.Relation, error) {
	out := relation.New(e.Schema())
	err := StreamExpr(e, tau, func(row relation.Row) {
		out.InsertOwnedRow(row)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Stream implements Streamer: a base scan pushes expτ(R) straight out of
// the stored relation — no snapshot, no clone. The caller must hold the
// table's read lock.
func (b *Base) Stream(tau xtime.Time, emit func(relation.Row)) error {
	b.Rel.AliveAt(tau, emit)
	return nil
}

// Stream implements Streamer, formula (1). A selection directly over a
// base relation is the fused fast path for parallel execution: the scan is
// chunked and the predicate evaluated across the worker pool.
func (s *Select) Stream(tau xtime.Time, emit func(relation.Row)) error {
	if b, ok := s.Child.(*Base); ok {
		if rows, big := parallelRows(b.Rel, tau); big {
			parallelFilterMap(rows, func(row relation.Row, out *[]relation.Row) {
				if s.Pred.Holds(row.Tuple) {
					*out = append(*out, row)
				}
			}, emit)
			return nil
		}
	}
	return StreamExpr(s.Child, tau, func(row relation.Row) {
		if s.Pred.Holds(row.Tuple) {
			emit(row)
		}
	})
}

// Stream implements Streamer, formula (3): project each row, pass texp
// through. Duplicate merging (max) happens at the collector.
func (p *Project) Stream(tau xtime.Time, emit func(relation.Row)) error {
	return StreamExpr(p.Child, tau, func(row relation.Row) {
		emit(relation.Row{Tuple: row.Tuple.Project(p.Cols), Texp: row.Texp})
	})
}

// Stream implements Streamer, formula (2): the right argument is collected
// once (deduplicated), then left rows stream through and pair with it.
func (p *Product) Stream(tau xtime.Time, emit func(relation.Row)) error {
	r, err := EvalStream(p.Right, tau)
	if err != nil {
		return err
	}
	rrows := r.Rows(tau)
	return StreamExpr(p.Left, tau, func(lr relation.Row) {
		for _, rr := range rrows {
			emit(relation.Row{Tuple: lr.Tuple.Concat(rr.Tuple), Texp: xtime.Min(lr.Texp, rr.Texp)})
		}
	})
}

// Stream implements Streamer, formula (4): both argument streams are
// forwarded; the max-texp rule for tuples in both arguments is the
// collector's duplicate handling.
func (u *Union) Stream(tau xtime.Time, emit func(relation.Row)) error {
	if err := StreamExpr(u.Left, tau, emit); err != nil {
		return err
	}
	return StreamExpr(u.Right, tau, emit)
}

// Stream implements Streamer, formula (5): the right (build) side is
// collected and hash-indexed on the equi-join columns, then left (probe)
// rows stream through the index. Large probe sides fan out across the
// worker pool — the index is immutable after build, so probing is
// lock-free — with results merged back in probe order on the calling
// goroutine. Without equality conjuncts it degrades to a streamed nested
// loop over the hoisted right rows.
func (j *Join) Stream(tau xtime.Time, emit func(relation.Row)) error {
	build, probeSide := j.Right, j.Left
	if j.BuildLeft {
		build, probeSide = j.Left, j.Right
	}
	b, err := EvalStream(build, tau)
	if err != nil {
		return err
	}
	leftCols, rightCols, rest, ok := j.equiCols()
	if !ok {
		// No equality conjuncts: streamed nested loop over the hoisted
		// build rows. The concatenation order is always left ++ right,
		// whichever side was hoisted.
		brows := b.Rows(tau)
		if j.BuildLeft {
			return StreamExpr(probeSide, tau, func(rr relation.Row) {
				for _, lr := range brows {
					t := lr.Tuple.Concat(rr.Tuple)
					if j.Pred.Holds(t) {
						emit(relation.Row{Tuple: t, Texp: xtime.Min(lr.Texp, rr.Texp)})
					}
				}
			})
		}
		return StreamExpr(probeSide, tau, func(lr relation.Row) {
			for _, rr := range brows {
				t := lr.Tuple.Concat(rr.Tuple)
				if j.Pred.Holds(t) {
					emit(relation.Row{Tuple: t, Texp: xtime.Min(lr.Texp, rr.Texp)})
				}
			}
		})
	}
	buildCols, probeCols := rightCols, leftCols
	if j.BuildLeft {
		buildCols, probeCols = leftCols, rightCols
	}
	idx := b.BuildIndex(tau, buildCols)
	probe := func(pr relation.Row, out *[]relation.Row) {
		for _, br := range idx.ProbeKey(pr.Tuple.KeyCols(probeCols)) {
			var t tuple.Tuple
			if j.BuildLeft {
				t = br.Tuple.Concat(pr.Tuple)
			} else {
				t = pr.Tuple.Concat(br.Tuple)
			}
			if holdsAll(rest, t) {
				*out = append(*out, relation.Row{Tuple: t, Texp: xtime.Min(pr.Texp, br.Texp)})
			}
		}
	}
	if workerCount() > 1 {
		var prows []relation.Row
		if err := StreamExpr(probeSide, tau, func(row relation.Row) {
			prows = append(prows, row)
		}); err != nil {
			return err
		}
		if len(prows) >= 2*streamChunk {
			parallelFilterMap(prows, probe, emit)
			return nil
		}
		var buf []relation.Row
		for _, pr := range prows {
			buf = buf[:0]
			probe(pr, &buf)
			for _, row := range buf {
				emit(row)
			}
		}
		return nil
	}
	var buf []relation.Row
	return StreamExpr(probeSide, tau, func(pr relation.Row) {
		buf = buf[:0]
		probe(pr, &buf)
		for _, row := range buf {
			emit(row)
		}
	})
}

// Stream implements Streamer, formula (6): the right argument is collected
// for membership probes, then left rows stream through.
func (x *Intersect) Stream(tau xtime.Time, emit func(relation.Row)) error {
	r, err := EvalStream(x.Right, tau)
	if err != nil {
		return err
	}
	return StreamExpr(x.Left, tau, func(row relation.Row) {
		if rt, ok := r.Texp(row.Tuple); ok && rt > tau {
			emit(relation.Row{Tuple: row.Tuple, Texp: xtime.Min(row.Texp, rt)})
		}
	})
}
