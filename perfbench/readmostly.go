package main

import (
	"math/rand"
	"time"

	"expdb/internal/engine"
	"expdb/internal/sql"
	"expdb/internal/xtime"
)

// read-mostly: two clients on one memory-only table t(k, v) with a hash
// index on k and an ordered index on v, holding about 100k live rows.
// Each client owns half the keys (see keyModel). Per client operation:
//
//   - 3% INSERT of a fresh key, EXPIRES IN a TTL around rmTTL;
//   - 4% short range scan on v (1..16 values of the client's band);
//   - 3% COUNT/MIN/MAX over 8..64 values of v;
//   - 2% ADVANCE TO now+1, client 0 only (1% of all operations);
//   - the rest point lookups on k, zipf-distributed over the client's
//     keys by recency (rank 0 is its newest key).
//
// Inserts per tick per client are rmInsert/rmAdvance = 1.5, and the
// preload expires 1.5 rows per tick per client in TTL order, so inserts
// balance expiry and the live count stays near 2*rmPerClient. The
// lookups' distinct statements far outnumber the result cache's entries,
// and any insert into t invalidates the cached answers on t, so the
// cache serves only the share of lookups that repeat a hot statement
// between two inserts. No unselective GROUP BY: one over 100k rows would
// take ~0.2 s and swamp every other number.
const (
	rmPerClient = 50_000
	rmVSpan     = 50_000
	rmInsert    = 0.03
	rmRange     = 0.04
	rmAgg       = 0.03
	rmAdvance   = 0.02
	rmBatch     = 15 // preload rows per statement; one statement per 10 ticks
	rmTTL       = rmPerClient * 10 / rmBatch
	rmZipfS     = 1.1
)

type readMostly struct {
	models []*keyModel
	zipfs  []*rand.Zipf
	now    xtime.Time // advanced by client 0 only
}

func setupReadMostly(cfg *config) (*instance, error) {
	eng := engine.New()
	setup := sql.NewSession(eng, nil)
	w := &readMostly{}
	inst := &instance{eng: eng, rows: map[string]int{}, loop: w.loop}
	if _, err := setup.Exec("CREATE TABLE t (k INT, v INT)"); err != nil {
		return nil, err
	}
	for c := 0; c < 2; c++ {
		m := newKeyModel(c, rmVSpan, true)
		cl := newClient(c, cfg.seed, sql.NewSession(eng, nil), cfg.bad)
		for s := int64(0); s < rmPerClient; s += rmBatch {
			if err := m.preload(setup, cl, "t", min(rmBatch, rmPerClient-s), xtime.Time(10*(s/rmBatch+1))); err != nil {
				return nil, err
			}
		}
		w.models = append(w.models, m)
		w.zipfs = append(w.zipfs, rand.NewZipf(cl.rng, rmZipfS, 1, rmPerClient-1))
		inst.clients = append(inst.clients, cl)
	}
	for _, q := range []string{
		"CREATE INDEX t_k ON t (k) USING HASH",
		"CREATE INDEX t_v ON t (v) USING ORDERED",
	} {
		if _, err := setup.Exec(q); err != nil {
			return nil, err
		}
	}
	inst.rows["t"], _ = eng.TableCard("t")
	inst.finish = func(_, _ map[string]float64) error { return nil }
	inst.release = func() error { return nil }
	return inst, nil
}

func (w *readMostly) loop(c *client, deadline time.Time) {
	m, zipf := w.models[c.id], w.zipfs[c.id]
	band := int64(c.id) * rmVSpan
	for c.running(deadline) {
		p := c.rng.Float64()
		switch {
		case p < rmInsert:
			m.insert(c, "t", xtime.Time(rmTTL/2+c.rng.Int63n(rmTTL)))
		case p < rmInsert+rmRange:
			lo := band + c.rng.Int63n(rmVSpan-16)
			hi := lo + 1 + c.rng.Int63n(16)
			if res, ok := c.exec(kRead, c.lit("SELECT * FROM t WHERE v >= ").num(lo).lit(" AND v < ").num(hi).text()); ok {
				c.check("range scan", func() error { return c.sc.checkAnswer(res, m.wantRange(lo, hi, res.At, &c.sc.want)) })
			}
		case p < rmInsert+rmRange+rmAgg:
			lo := band + c.rng.Int63n(rmVSpan-64)
			hi := lo + 8 + c.rng.Int63n(56)
			if res, ok := c.exec(kRead, c.lit("SELECT COUNT(*), MIN(k), MAX(k) FROM t WHERE v >= ").num(lo).lit(" AND v < ").num(hi).text()); ok {
				c.check("aggregate", func() error { return c.sc.checkAnswer(res, m.wantAgg(lo, hi, res.At, &c.sc.want)) })
			}
		case c.id == 0 && p < rmInsert+rmRange+rmAgg+rmAdvance:
			w.now++
			if res, ok := c.exec(kAdvance, c.lit("ADVANCE TO ").num(int64(w.now)).text()); ok && res.At != w.now {
				c.bad.add("ADVANCE TO %d answered at tick %d", w.now, res.At)
			}
		default:
			s := m.next() - 1 - int64(zipf.Uint64())
			if res, ok := c.exec(kRead, c.lit("SELECT * FROM t WHERE k = ").num(m.key(s)).text()); ok {
				c.check("point lookup", func() error { return c.sc.checkAnswer(res, m.wantPoint(s, res.At, &c.sc.want)) })
			}
		}
	}
}
