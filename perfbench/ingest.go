package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"expdb"
	"expdb/internal/relation"
	"expdb/internal/sql"
	"expdb/internal/xtime"
)

// durable-ingest: two writer clients on a durable database, so
// concurrent INSERTs share fsyncs (group commit). Table ev(k, v) carries
// the same two indexes as read-mostly. Per client: 95% INSERT of a fresh
// key with a TTL of diTTL/2..3*diTTL/2 ticks, 5% read-your-write point
// lookups of one of its last 64 keys. Client 0 also advances the clock
// by one tick for every diPerTick inserts of both clients, and calls
// Engine.Checkpoint every diCheckpointTicks ticks.
//
// Ticks follow the inserts of both clients, not of client 0 alone, so
// that each ADVANCE expires about diPerTick rows however the machine
// schedules the two clients. The live count levels off near
// diPerTick*diTTL rows; the preload starts it there, with TTLs spread so
// that it expires at that same rate. A run of many thousand ticks sees
// the TTL pass many times over.
//
// Flush policy: every INSERT row and ADVANCE is fsynced before it is
// acknowledged (the engine's only policy). The WAL's device is a memFS:
// the run measures the durability layer's own work, not a disk's fsync.
const (
	diPerTick         = 20
	diCheckpointTicks = 200
	diTTL             = 400
	diRead            = 0.05
	diRecent          = 64
	diReopens         = 3
	diFlushPolicy     = "fsync before acknowledgement; concurrent writers share one fsync (group commit); in-memory device, fsync returns at once"
)

type durableIngest struct {
	cfg    *config
	fs     *memFS
	db     *expdb.DB
	models []*keyModel
	now    xtime.Time   // advanced by client 0 only
	rows   atomic.Int64 // rows inserted by both clients since set-up
}

func setupDurableIngest(cfg *config) (*instance, error) {
	_, inst, err := newDurableIngest(cfg)
	return inst, err
}

func newDurableIngest(cfg *config) (*durableIngest, *instance, error) {
	w := &durableIngest{cfg: cfg, fs: newMemFS()}
	db, err := w.open()
	if err != nil {
		return nil, nil, err
	}
	w.db = db
	eng := db.Engine()
	inst := &instance{eng: eng, rows: map[string]int{}, loop: w.loop, finish: w.finish, release: w.release}
	setup := sql.NewSession(eng, nil)
	for _, q := range []string{
		"CREATE TABLE ev (k INT, v INT)",
		"CREATE INDEX ev_k ON ev (k) USING HASH",
		"CREATE INDEX ev_v ON ev (v) USING ORDERED",
	} {
		if _, err := setup.Exec(q); err != nil {
			w.release()
			return nil, nil, err
		}
	}
	for c := 0; c < 2; c++ {
		m := newKeyModel(c, 1<<30, false)
		cl := newClient(c, cfg.seed, sql.NewSession(eng, nil), cfg.bad)
		// diPerTick/2 rows per statement, one statement per tick of TTL.
		for ttl := xtime.Time(1); ttl <= diTTL; ttl++ {
			if err := m.preload(setup, cl, "ev", diPerTick/2, ttl); err != nil {
				w.release()
				return nil, nil, err
			}
		}
		w.models = append(w.models, m)
		inst.clients = append(inst.clients, cl)
	}
	inst.rows["ev"], _ = eng.TableCard("ev")
	return w, inst, nil
}

// diDir is the WAL's directory in the memFS.
const diDir = "wal"

func (w *durableIngest) open() (*expdb.DB, error) {
	return expdb.OpenDurable(diDir, expdb.WithVFS(w.fs))
}

func (w *durableIngest) loop(c *client, deadline time.Time) {
	m := w.models[c.id]
	eng := w.db.Engine()
	for c.running(deadline) {
		if c.rng.Float64() < diRead {
			s := m.next() - 1 - c.rng.Int63n(diRecent)
			if res, ok := c.exec(kRead, c.lit("SELECT * FROM ev WHERE k = ").num(m.key(s)).text()); ok {
				c.check("read-your-write lookup", func() error { return c.sc.checkAnswer(res, m.wantPoint(s, res.At, &c.sc.want)) })
			}
			continue
		}
		m.insert(c, "ev", xtime.Time(diTTL/2+c.rng.Int63n(diTTL)))
		rows := w.rows.Add(1)
		for c.id == 0 && rows >= int64(w.now+1)*diPerTick {
			w.now++
			if res, ok := c.exec(kAdvance, c.lit("ADVANCE TO ").num(int64(w.now)).text()); ok && res.At != w.now {
				c.bad.add("ADVANCE TO %d answered at tick %d", w.now, res.At)
			}
			if w.now%diCheckpointTicks == 0 {
				c.call(kCheckpoint, spanCheckpoint, func() (uint8, error) { return tagNone, eng.Checkpoint() })
			}
		}
	}
}

// finish measures the space the WAL takes per live row, closes the
// database, then reopens it diReopens times: recovery_s is the median
// reopen time (also reported as wal.recovery_ms in traced runs), and the
// first reopen must bring back every acknowledged row that has not
// expired, with its expiration time, and the clock.
func (w *durableIngest) finish(out, layers map[string]float64) error {
	var live int
	for _, m := range w.models {
		live += len(m.aliveAt(w.now))
	}
	layers["wal.disk_bytes_per_live_row"] = ratio(float64(w.fs.bytes(diDir)), float64(live))
	if err := w.db.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	var times []float64
	for i := 0; i < diReopens; i++ {
		t0 := time.Now()
		db, err := w.open()
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i == 0 {
			info := db.RecoveryInfo()
			layers["wal.replayed_records"] = float64(info.Records)
			if err := w.checkRecovered(db, info.Clock); err != nil {
				w.cfg.bad.add("after reopen: %v", err)
			}
		}
		if err := db.Close(); err != nil {
			return fmt.Errorf("close after reopen: %w", err)
		}
	}
	out["recovery_s"] = median(times)
	layers["wal.recovery_ms"] = median(times) * 1e3
	return nil
}

func (w *durableIngest) checkRecovered(db *expdb.DB, clock xtime.Time) error {
	if clock != w.now {
		return fmt.Errorf("recovered clock %d, last acknowledged ADVANCE was to %d", clock, w.now)
	}
	res, err := sql.NewSession(db.Engine(), nil).Exec("SELECT * FROM ev")
	if err != nil {
		return err
	}
	var want []relation.Row
	for _, m := range w.models {
		want = append(want, m.aliveAt(clock)...)
	}
	var sc scratch
	return sc.checkAnswer(res, want)
}

func (w *durableIngest) release() error { return w.db.Close() }
