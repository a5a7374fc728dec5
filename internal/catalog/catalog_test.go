package catalog

import (
	"fmt"
	"sync"
	"testing"

	"expdb/internal/algebra"
	"expdb/internal/tuple"
	"expdb/internal/view"
)

func TestCreateLookupDrop(t *testing.T) {
	c := New()
	r, err := c.CreateTable("pol", tuple.IntCols("uid", "deg"))
	if err != nil {
		t.Fatal(err)
	}
	if r == nil {
		t.Fatal("nil relation")
	}
	got, err := c.Table("pol")
	if err != nil || got != r {
		t.Fatalf("Table = %v, %v", got, err)
	}
	if _, err := c.CreateTable("pol", tuple.IntCols("x")); err == nil {
		t.Error("duplicate table accepted")
	}
	if err := c.DropTable("pol"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Table("pol"); err == nil {
		t.Error("dropped table still resolvable")
	}
	if err := c.DropTable("pol"); err == nil {
		t.Error("double drop accepted")
	}
}

func TestViewRegistry(t *testing.T) {
	c := New()
	rel, err := c.CreateTable("t", tuple.IntCols("x"))
	if err != nil {
		t.Fatal(err)
	}
	v, err := view.New("v", algebra.NewBase("t", rel))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterView(v); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterView(v); err == nil {
		t.Error("duplicate view accepted")
	}
	got, err := c.View("v")
	if err != nil || got != v {
		t.Fatalf("View = %v, %v", got, err)
	}
	// A view may not shadow a table and vice versa.
	shadow, err := view.New("t", algebra.NewBase("t", rel))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterView(shadow); err == nil {
		t.Error("view shadowing a table accepted")
	}
	if _, err := c.CreateTable("v", tuple.IntCols("x")); err == nil {
		t.Error("table shadowing a view accepted")
	}
	if err := c.DropView("v"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropView("v"); err == nil {
		t.Error("double view drop accepted")
	}
}

func TestListingsSorted(t *testing.T) {
	c := New()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if _, err := c.CreateTable(name, tuple.IntCols("x")); err != nil {
			t.Fatal(err)
		}
	}
	names := c.Tables()
	if len(names) != 3 || names[0] != "alpha" || names[2] != "zeta" {
		t.Fatalf("Tables() = %v", names)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("t%d", i)
			if _, err := c.CreateTable(name, tuple.IntCols("x")); err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < 100; j++ {
				if _, err := c.Table(name); err != nil {
					t.Error(err)
					return
				}
				c.Tables()
			}
		}(i)
	}
	wg.Wait()
	if len(c.Tables()) != 16 {
		t.Fatalf("tables = %d", len(c.Tables()))
	}
}

// TestEpochCountsNameSpaceChanges checks that every successful CREATE or
// DROP of a table, index or view bumps the epoch exactly once, and that
// failed DDL and lookups leave it alone.
func TestEpochCountsNameSpaceChanges(t *testing.T) {
	c := New()
	last := c.Epoch()
	step := func(what string, changed bool) {
		t.Helper()
		now := c.Epoch()
		switch {
		case changed && now != last+1:
			t.Fatalf("%s: epoch %d → %d, want one bump", what, last, now)
		case !changed && now != last:
			t.Fatalf("%s: epoch moved %d → %d", what, last, now)
		}
		last = now
	}
	rel, err := c.CreateTable("t", tuple.IntCols("x"))
	if err != nil {
		t.Fatal(err)
	}
	step("create table", true)
	c.CreateTable("t", tuple.IntCols("x"))
	step("duplicate create table", false)
	c.Table("t")
	c.Tables()
	step("lookups", false)
	if err := c.AddIndex(&IndexDef{Name: "t_x", Table: "t", Cols: []int{0}}); err != nil {
		t.Fatal(err)
	}
	step("add index", true)
	if _, err := c.DropIndex("t_x"); err != nil {
		t.Fatal(err)
	}
	step("drop index", true)
	c.DropIndex("t_x")
	step("double drop index", false)
	v, err := view.New("v", algebra.NewBase("t", rel))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterView(v); err != nil {
		t.Fatal(err)
	}
	step("register view", true)
	if err := c.DropView("v"); err != nil {
		t.Fatal(err)
	}
	step("drop view", true)
	if err := c.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	step("drop table", true)
	c.DropTable("t")
	step("double drop table", false)
}
