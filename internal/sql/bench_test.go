package sql

import (
	"testing"

	"expdb/internal/engine"
	"expdb/internal/tuple"
	"expdb/internal/xtime"
)

// pointLookupSession opens a session on a 100k-row table with a hash
// index on k — the shape of the engine's BenchmarkIndexedPointLookup,
// reached through SQL text instead of a hand-built plan.
func pointLookupSession(b *testing.B) *Session {
	b.Helper()
	eng := engine.New()
	s := NewSession(eng, nil)
	if _, err := s.ExecScript("CREATE TABLE ev (k INT, v INT); CREATE INDEX ev_k ON ev (k)"); err != nil {
		b.Fatal(err)
	}
	for r := 0; r < 100_000; r++ {
		if err := eng.Insert("ev", tuple.Ints(int64(r), int64(r%7)), xtime.Infinity); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

const pointLookupQuery = "SELECT * FROM ev WHERE k = 41771"

// BenchmarkSQLPointLookup measures an indexed point lookup at the SQL
// surface, one sub-benchmark per front-end path:
//
//   - repeated-text: Session.Exec on the same text, served from the
//     statement cache and the result cache (CI pins it at ≤10 allocs/op);
//   - result-cache-hit: Session.ExecStmt on a parsed statement, which
//     plans the SELECT but is served from the result cache;
//   - uncached: Session.Exec on the same text with the result cache off,
//     so every run picks a physical plan and probes the index.
func BenchmarkSQLPointLookup(b *testing.B) {
	check := func(b *testing.B, res *Result, err error) {
		if err != nil {
			b.Fatal(err)
		}
		if res.Rel.CountAt(res.At) != 1 {
			b.Fatal("lookup missed")
		}
	}
	b.Run("repeated-text", func(b *testing.B) {
		s := pointLookupSession(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := s.Exec(pointLookupQuery)
			check(b, res, err)
		}
	})
	b.Run("result-cache-hit", func(b *testing.B) {
		s := pointLookupSession(b)
		stmt, err := Parse(pointLookupQuery)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := s.ExecStmt(stmt)
			check(b, res, err)
		}
	})
	b.Run("uncached", func(b *testing.B) {
		s := pointLookupSession(b)
		s.eng.SetResultCache(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := s.Exec(pointLookupQuery)
			check(b, res, err)
		}
	})
}
