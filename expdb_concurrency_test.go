package expdb_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"expdb"
)

// TestDBConcurrentQueryAndInsert drives one DB from several goroutines at
// once — repeated SELECT texts through Query and QueryContext, INSERTs
// through Exec and ExecScript, and Plan — the way a server handler would.
// Run under -race it checks that the façade serialises its shared SQL
// session; every answer must still be right: the point lookups find the
// one row each key has, and the count sees every insert acknowledged so
// far.
func TestDBConcurrentQueryAndInsert(t *testing.T) {
	db := expdb.Open()
	db.MustExec("CREATE TABLE kv (k INT, v INT)")
	db.MustExec("CREATE TABLE log (n INT)")
	for k := 0; k < 8; k++ {
		db.MustExec(fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", k, k*10))
	}
	const writers, readers, perG = 2, 3, 150
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		acks int
	)
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				var err error
				if i%2 == 0 {
					_, err = db.Exec(fmt.Sprintf("INSERT INTO log VALUES (%d)", w*perG+i))
				} else {
					_, err = db.ExecScript(fmt.Sprintf("INSERT INTO log VALUES (%d);", w*perG+i))
				}
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				acks++
				mu.Unlock()
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < perG; i++ {
				k := (r + i) % 8
				q := fmt.Sprintf("SELECT v FROM kv WHERE k = %d", k)
				var res *expdb.Result
				var err error
				if i%2 == 0 {
					res, err = db.Query(q)
				} else {
					res, err = db.QueryContext(ctx, q)
				}
				if err != nil {
					errs <- err
					return
				}
				rows := res.Rows()
				if len(rows) != 1 || rows[0].Tuple[0].AsInt() != int64(k*10) {
					errs <- fmt.Errorf("%s: rows %v", q, rows)
					return
				}
				mu.Lock()
				before := acks
				mu.Unlock()
				res, err = db.Query("SELECT * FROM log")
				if err != nil {
					errs <- err
					return
				}
				if n := len(res.Rows()); n < before {
					errs <- fmt.Errorf("log count %d below %d acknowledged inserts", n, before)
					return
				}
				if _, err := db.Plan(q); err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := len(db.MustExec("SELECT * FROM log").Rows()); n != writers*perG {
		t.Fatalf("log holds %d rows, want %d", n, writers*perG)
	}
	if m := db.SQLMetrics(); m.StmtCacheHits == 0 {
		t.Fatalf("repeated SELECT texts never hit the statement cache: %+v", m)
	}
}
