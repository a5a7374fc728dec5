package sql

import (
	"container/list"

	"expdb/internal/algebra"
)

// stmtCacheSize bounds a session's statement cache (entries); past it the
// least recently used text is evicted.
const stmtCacheSize = 1024

// prepared is a SELECT lowered as far as it can be before it runs: the
// parsed statement, its selection-pushed logical plan and the result-cache
// key that plan prints as. The physical plan is not kept — it is chosen on
// each result-cache miss, so access paths follow current cardinalities.
//
// A repeated SELECT text reuses its prepared form through the session's
// statement cache while two things hold: the catalog epoch it was lowered
// at (no table, index or view has been created or dropped since, so every
// name still binds the relation it bound) and the session's aggregation
// policy (baked into aggregation nodes). A plan that resolved a view is
// never cached: it embeds the view's snapshot at planning time.
type prepared struct {
	src     string // the statement text it is cached under
	sel     *Select
	logical algebra.Expr
	key     string // "" when the plan is uncacheable
	epoch   uint64
	policy  algebra.AggPolicy
}

// lookupPrepared returns the statement cache's entry for src while it is
// still valid, or nil. A stale entry is dropped on the way.
func (s *Session) lookupPrepared(src string) *prepared {
	el, ok := s.stmts[src]
	if !ok {
		return nil
	}
	p := el.Value.(*prepared)
	if p.epoch != s.eng.Catalog().Epoch() || p.policy != s.policy {
		s.stmtLRU.Remove(el)
		delete(s.stmts, src)
		return nil
	}
	s.stmtLRU.MoveToFront(el)
	s.m.StmtCacheHits.Inc()
	return p
}

// forgetPrepared empties the statement cache.
func (s *Session) forgetPrepared() {
	clear(s.stmts)
	s.stmtLRU.Init()
}

// prepare lowers st to its selection-pushed logical plan and cache key.
// src is the statement's text when it came through Exec ("" otherwise);
// a SELECT with text that resolved no view is remembered under it.
func (s *Session) prepare(st *Select, src string) (*prepared, error) {
	if src != "" {
		s.m.StmtCacheMisses.Inc()
	}
	// The epoch is read before the names are resolved, so a concurrent
	// DDL can only make the entry look older than its plan, never newer.
	p := &prepared{src: src, sel: st, epoch: s.eng.Catalog().Epoch(), policy: s.policy}
	viewsBefore := s.viewReads
	sp := s.span.Child("plan")
	expr, err := s.planSelect(st)
	sp.End()
	if err != nil {
		return nil, err
	}
	// The cache key is the canonical (selection-pushed) LOGICAL plan
	// string — ORDER BY/LIMIT are presentation-level and applied after,
	// so differently-dressed readings of the same relation share an
	// entry, and indexed and unindexed engines share keys because
	// physical access-path choices never enter the key.
	p.logical = algebra.PushDownSelections(expr)
	if s.viewReads != viewsBefore {
		return p, nil
	}
	p.key = p.logical.String()
	if src != "" {
		if s.stmts == nil {
			s.stmts = make(map[string]*list.Element)
		}
		if s.stmtLRU.Len() >= stmtCacheSize {
			old := s.stmtLRU.Remove(s.stmtLRU.Back()).(*prepared)
			delete(s.stmts, old.src)
		}
		s.stmts[src] = s.stmtLRU.PushFront(p)
	}
	return p, nil
}
