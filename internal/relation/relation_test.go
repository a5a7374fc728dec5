package relation

import (
	"testing"
	"testing/quick"

	"expdb/internal/tuple"
	"expdb/internal/xtime"
)

// pol builds the paper's Figure 1(a) Politics table:
//
//	texp UID Deg
//	 10   1  25
//	 15   2  25
//	 10   3  35
func pol() *Relation {
	r := New(tuple.IntCols("UID", "Deg"))
	r.MustInsertInts(10, 1, 25)
	r.MustInsertInts(15, 2, 25)
	r.MustInsertInts(10, 3, 35)
	return r
}

// el builds the paper's Figure 1(b) Elections table.
func el() *Relation {
	r := New(tuple.IntCols("UID", "Deg"))
	r.MustInsertInts(5, 1, 75)
	r.MustInsertInts(3, 2, 85)
	r.MustInsertInts(2, 4, 90)
	return r
}

func TestExpTauStrictness(t *testing.T) {
	r := pol()
	// texp=10 means alive at 9, gone at 10: expτ keeps texp > τ.
	if !r.Contains(tuple.Ints(1, 25), 9) {
		t.Error("⟨1,25⟩ must be alive at 9")
	}
	if r.Contains(tuple.Ints(1, 25), 10) {
		t.Error("⟨1,25⟩ must be expired at 10")
	}
	if got := r.CountAt(0); got != 3 {
		t.Errorf("|exp0(Pol)| = %d, want 3", got)
	}
	if got := r.CountAt(10); got != 1 {
		t.Errorf("|exp10(Pol)| = %d, want 1 (only ⟨2,25⟩)", got)
	}
	if got := r.CountAt(15); got != 0 {
		t.Errorf("|exp15(Pol)| = %d, want 0", got)
	}
}

func TestInsertSetSemantics(t *testing.T) {
	r := New(tuple.IntCols("a"))
	if !r.Insert(tuple.Ints(1), 5) {
		t.Error("first insert must report change")
	}
	// Re-insert with smaller texp: no change.
	if r.Insert(tuple.Ints(1), 3) {
		t.Error("smaller texp must not win")
	}
	if texp, _ := r.Texp(tuple.Ints(1)); texp != 5 {
		t.Errorf("texp = %v, want 5", texp)
	}
	// Re-insert with larger texp: extends lifetime.
	if !r.Insert(tuple.Ints(1), 9) {
		t.Error("larger texp must win and report change")
	}
	if texp, _ := r.Texp(tuple.Ints(1)); texp != 9 {
		t.Errorf("texp = %v, want 9", texp)
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1 (set semantics)", r.Len())
	}
}

func TestInsertClones(t *testing.T) {
	r := New(tuple.IntCols("a", "b"))
	src := tuple.Ints(1, 2)
	r.Insert(src, 10)
	src[1] = tuple.Ints(99)[0]
	rows := r.Rows(0)
	if rows[0].Tuple[1].AsInt() != 2 {
		t.Error("Insert must clone the tuple")
	}
}

func TestDelete(t *testing.T) {
	r := pol()
	if !r.Delete(tuple.Ints(1, 25)) {
		t.Error("delete of present tuple must report true")
	}
	if r.Delete(tuple.Ints(1, 25)) {
		t.Error("second delete must report false")
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestRemoveExpiredAndNextExpiration(t *testing.T) {
	r := pol()
	if next := r.NextExpiration(0); next != 10 {
		t.Errorf("NextExpiration(0) = %v, want 10", next)
	}
	removed := r.RemoveExpired(10)
	if len(removed) != 2 {
		t.Errorf("removed %d rows, want 2", len(removed))
	}
	if r.Len() != 1 {
		t.Errorf("Len after sweep = %d, want 1", r.Len())
	}
	if next := r.NextExpiration(10); next != 15 {
		t.Errorf("NextExpiration(10) = %v, want 15", next)
	}
	if next := r.NextExpiration(15); next != xtime.Infinity {
		t.Errorf("NextExpiration(15) = %v, want Infinity", next)
	}
}

func TestSnapshotIndependence(t *testing.T) {
	r := pol()
	s := r.Snapshot(9)
	if s.CountAt(9) != 3 {
		// texp 10 and 15 are > 9.
		t.Fatalf("snapshot size = %d, want 3", s.CountAt(9))
	}
	r.Delete(tuple.Ints(1, 25))
	if s.CountAt(9) != 3 {
		t.Error("snapshot must be independent of the source")
	}
}

func TestRowsSortedDeterministic(t *testing.T) {
	r := pol()
	rows := r.RowsSorted(0)
	if len(rows) != 3 {
		t.Fatalf("len = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1].Tuple.Compare(rows[i].Tuple) >= 0 {
			t.Fatalf("rows not sorted: %v before %v", rows[i-1].Tuple, rows[i].Tuple)
		}
	}
}

func TestEqualAt(t *testing.T) {
	a, b := pol(), pol()
	if !a.EqualAt(b, 0) {
		t.Error("identical relations must be EqualAt(0)")
	}
	b.Insert(tuple.Ints(9, 9), 20)
	if a.EqualAt(b, 0) {
		t.Error("different content must not be EqualAt")
	}
	// ...but at τ=19 the extra tuple in b is the only difference; at τ=20 it expired.
	if !a.EqualAt(b, 20) {
		t.Error("must be equal once extra tuple expired")
	}
	// Same tuples, different texp: SameTuplesAt true, EqualAt false.
	c, d := New(tuple.IntCols("x")), New(tuple.IntCols("x"))
	c.MustInsertInts(5, 1)
	d.MustInsertInts(7, 1)
	if c.EqualAt(d, 0) {
		t.Error("different texp must break EqualAt")
	}
	if !c.SameTuplesAt(d, 0) {
		t.Error("same tuples must satisfy SameTuplesAt")
	}
}

func TestBuildIndexProbe(t *testing.T) {
	r := pol()
	deg := []int{1}
	idx := r.BuildIndex(0, deg) // index on Deg
	if hits := idx.ProbeKey(tuple.Ints(0, 25).KeyCols(deg)); len(hits) != 2 {
		t.Fatalf("probe(25) = %d rows, want 2", len(hits))
	}
	if got := idx.ProbeKey(tuple.Ints(7, 35).KeyCols(deg)); len(got) != 1 {
		t.Fatalf("probe tuple with Deg=35 = %d rows, want 1", len(got))
	}
	// Index respects expτ: build at τ=10, only ⟨2,25⟩ alive.
	idx10 := r.BuildIndex(10, deg)
	if len(idx10.ProbeKey(tuple.Ints(0, 25).KeyCols(deg))) != 1 {
		t.Error("index at τ=10 must only see unexpired rows")
	}
	if len(idx10.ProbeKey(tuple.Ints(0, 35).KeyCols(deg))) != 0 {
		t.Error("expired row leaked into index")
	}
}

func TestTotalRemainingLifetime(t *testing.T) {
	r := pol()
	// At τ=0: (10-0)+(15-0)+(10-0) = 35.
	if got := r.TotalRemainingLifetime(0); got != 35 {
		t.Errorf("lifetime = %d, want 35", got)
	}
	r.Insert(tuple.Ints(8, 8), xtime.Infinity)
	if got := r.TotalRemainingLifetime(0); got != 35 {
		t.Errorf("infinite rows must not contribute: %d", got)
	}
}

func TestRenderContainsHeaderAndRows(t *testing.T) {
	out := pol().Render(0)
	for _, want := range []string{"UID", "Deg", "texp", "25", "35"} {
		if !contains(out, want) {
			t.Errorf("Render missing %q in:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestQuickInsertLookupRoundTrip(t *testing.T) {
	f := func(vals []int64, texps []uint16) bool {
		r := New(tuple.IntCols("v"))
		want := map[int64]xtime.Time{}
		for i, v := range vals {
			var texp xtime.Time = 1
			if i < len(texps) {
				texp = xtime.Time(texps[i]) + 1
			}
			r.Insert(tuple.Ints(v), texp)
			if old, ok := want[v]; !ok || texp > old {
				want[v] = texp
			}
		}
		if r.Len() != len(want) {
			return false
		}
		for v, texp := range want {
			got, ok := r.Texp(tuple.Ints(v))
			if !ok || got != texp {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSnapshotMatchesContains(t *testing.T) {
	f := func(vals []int64, tau uint8) bool {
		r := New(tuple.IntCols("v"))
		for i, v := range vals {
			r.Insert(tuple.Ints(v), xtime.Time(i%17))
		}
		s := r.Snapshot(xtime.Time(tau))
		ok := true
		r.All(func(row Row) {
			inSnap := s.Contains(row.Tuple, xtime.Time(tau))
			alive := row.Texp > xtime.Time(tau)
			if inSnap != alive {
				ok = false
			}
		})
		return ok && s.CountAt(xtime.Time(tau)) == r.CountAt(xtime.Time(tau))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestStoredLenTracksLen checks that the lock-free StoredLen agrees with
// Len through every mutator: fresh and duplicate inserts, deletes,
// expiry removal, and the copy-on-write detach after a shared snapshot.
func TestStoredLenTracksLen(t *testing.T) {
	r := New(tuple.IntCols("a"))
	check := func(what string) {
		t.Helper()
		if got, want := r.StoredLen(), r.Len(); got != want {
			t.Fatalf("%s: StoredLen = %d, Len = %d", what, got, want)
		}
	}
	for i := int64(0); i < 10; i++ {
		r.Insert(tuple.Ints(i), xtime.Time(10+i))
	}
	check("inserts")
	r.Insert(tuple.Ints(3), 100)
	r.InsertOwned(tuple.Ints(4).Key(), tuple.Ints(4), 100)
	check("duplicate inserts")
	snap := r.SnapshotShared(0)
	if snap.StoredLen() != 10 {
		t.Fatalf("snapshot StoredLen = %d, want 10", snap.StoredLen())
	}
	r.Delete(tuple.Ints(0))
	r.DeleteKey(tuple.Ints(99).Key())
	check("deletes after a shared snapshot")
	r.RemoveExpired(13)
	check("RemoveExpired scan")
	r.EnableTexpIndex(nil)
	r.RemoveExpired(16)
	check("RemoveExpired via the texp index")
	r.InsertOwnedRow(Row{Tuple: tuple.Ints(50), Texp: 60})
	check("InsertOwnedRow")
}

// TestRemoveExpiredNoOpKeepsMapShared: a sweep with nothing due must not
// detach a row map shared with a snapshot — after a checkpoint's
// SnapshotShared, every table would otherwise be copied by the next
// no-op sweep. The first actual removal still detaches, leaving the
// snapshot intact.
func TestRemoveExpiredNoOpKeepsMapShared(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		r := New(tuple.IntCols("id"))
		if indexed {
			r.EnableTexpIndex(nil)
		}
		for i := int64(0); i < 1000; i++ {
			r.Insert(tuple.Ints(i), xtime.Time(100+i))
		}
		snap := r.SnapshotShared(0)
		if removed := r.RemoveExpired(50); len(removed) != 0 {
			t.Fatalf("indexed=%v: removed %d rows, want 0", indexed, len(removed))
		}
		if !r.shared {
			t.Fatalf("indexed=%v: a no-op RemoveExpired detached the shared row map", indexed)
		}
		if removed := r.RemoveExpired(101); len(removed) != 2 {
			t.Fatalf("indexed=%v: removed %d rows, want 2", indexed, len(removed))
		}
		if r.shared || r.Len() != 998 || snap.Len() != 1000 {
			t.Fatalf("indexed=%v: after a removal shared=%v len=%d snapshot len=%d, want false/998/1000",
				indexed, r.shared, r.Len(), snap.Len())
		}
	}
}
