package main

import (
	"math/rand"
	"time"

	"expdb/internal/engine"
	"expdb/internal/relation"
	"expdb/internal/sql"
	"expdb/internal/wire"
	"expdb/internal/xtime"
)

// expiring-views: the paper's §2.1 news service. Tables pol(uid, deg)
// and el(uid, deg) are generated like internal/workload.NewsService for
// evUsers users: pol holds 90% of the users with lifetimes 50..200
// ticks, el 50% with lifetimes 5..60, degrees 0..99. Three materialised
// views cover the paper's cases:
//
//   - vj, a join (monotonic: served from the materialisation);
//   - vg, a GROUP BY (non-monotonic: recomputed when a count changes);
//   - vd, an EXCEPT WITH (patching) (Theorem 3 patches).
//
// A wire client keeps a remote copy of the same EXCEPT with a patch
// budget of evPatchBudget, so some of its reads are answered locally,
// some apply patches and a steady share re-materialise over loopback.
//
// One client runs epochs. Each epoch re-inserts every user whose
// row in a table has expired (keeping the table sizes steady), then
// REFRESHes the views and re-materialises the remote copy — views
// reflect inserts only after a refresh (README, "Scope and caveats").
// Then evTicks times: ADVANCE TO now+1, read one view (each in turn),
// and Read the remote copy at now. Every view and remote read is compared, outside
// the timed region, with the same query run on the base tables at the
// same tick. The result cache has nothing to do here (view plans are
// uncacheable) and no index exists.
const (
	evUsers       = 500
	evTicks       = 10
	evRowsPerStmt = 4
	evPatchBudget = 16
)

var evViews = []struct{ name, def, query string }{
	{"vj", "CREATE MATERIALIZED VIEW vj AS ", "SELECT pol.uid, pol.deg, el.deg FROM pol JOIN el ON pol.uid = el.uid"},
	{"vg", "CREATE MATERIALIZED VIEW vg AS ", "SELECT deg, COUNT(*) FROM pol GROUP BY deg"},
	{"vd", "CREATE MATERIALIZED VIEW vd WITH (patching) AS ", "SELECT uid FROM pol EXCEPT SELECT uid FROM el"},
}

const evRemoteQuery = "SELECT uid FROM pol EXCEPT SELECT uid FROM el"

// newsTable is the client's record of one table: which users have a row
// and until when, and the profile new rows are drawn from.
type newsTable struct {
	name             string
	minLife, maxLife int64
	texp             []xtime.Time // by uid; 0 = never inserted
}

type expiringViews struct {
	eng     *engine.Engine
	checker *sql.Session
	srv     *wire.Server
	remote  *wire.Client
	tables  []*newsTable
	now     xtime.Time
	// matBytes counts the wire bytes of the per-epoch re-materialisations,
	// so wire.bytes_per_read covers Read calls only.
	matBytes int64
	wire0    wireCounters
	expired  []int64 // reused by loop
}

type wireCounters struct {
	reads, remats, patches, bytes int64
}

func setupExpiringViews(cfg *config) (*instance, error) {
	eng := engine.New()
	w := &expiringViews{eng: eng, checker: sql.NewSession(eng, nil)}
	setup := sql.NewSession(eng, nil)
	cl := newClient(0, cfg.seed, sql.NewSession(eng, nil), cfg.bad)
	inst := &instance{eng: eng, clients: []*client{cl}, rows: map[string]int{}, loop: w.loop,
		phaseStart: func() { w.wire0 = w.counters() }, layer: w.layer,
		finish: func(_, _ map[string]float64) error { return w.release() }, release: w.release}

	rng := rand.New(rand.NewSource(cfg.seed))
	for _, p := range []struct {
		name             string
		density          float64
		minLife, maxLife int64
	}{{"pol", 0.9, 50, 200}, {"el", 0.5, 5, 60}} {
		if _, err := setup.Exec(cl.lit("CREATE TABLE ").lit(p.name).lit(" (uid INT, deg INT)").text()); err != nil {
			return nil, err
		}
		t := &newsTable{name: p.name, minLife: p.minLife, maxLife: p.maxLife, texp: make([]xtime.Time, evUsers)}
		byLife := map[int64][]int64{}
		for uid := int64(0); uid < evUsers; uid++ {
			if rng.Float64() < p.density {
				life := t.life(rng)
				byLife[life] = append(byLife[life], uid)
			}
		}
		for life := p.minLife; life <= p.maxLife; life++ {
			if len(byLife[life]) > 0 {
				if err := w.insert(setup, cl, rng, t, byLife[life], life, false); err != nil {
					return nil, err
				}
			}
		}
		w.tables = append(w.tables, t)
		inst.rows[p.name], _ = eng.TableCard(p.name)
	}
	for _, v := range evViews {
		if _, err := setup.Exec(v.def + v.query); err != nil {
			return nil, err
		}
	}
	w.srv = wire.NewServer(eng)
	addr, err := w.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if w.remote, err = wire.Dial(addr); err != nil {
		w.srv.Close()
		return nil, err
	}
	if err := w.remote.MaterializeBudget(evRemoteQuery, true, evPatchBudget); err != nil {
		w.release()
		return nil, err
	}
	return inst, nil
}

func (t *newsTable) life(rng *rand.Rand) int64 {
	return t.minLife + rng.Int63n(t.maxLife-t.minLife+1)
}

// insert writes (uid, random degree) rows for uids, EXPIRES IN life, as
// one statement; timed as a write operation when timed is set.
func (w *expiringViews) insert(sess *sql.Session, c *client, rng *rand.Rand, t *newsTable, uids []int64, life int64, timed bool) error {
	for len(uids) > 0 {
		n := min(len(uids), evRowsPerStmt)
		c.lit("INSERT INTO ").lit(t.name).lit(" VALUES ")
		for i, uid := range uids[:n] {
			if i > 0 {
				c.lit(", ")
			}
			c.lit("(").num(uid).lit(", ").num(rng.Int63n(100)).lit(")")
		}
		stmt := c.lit(" EXPIRES IN ").num(life).text()
		var res *sql.Result
		if timed {
			var ok bool
			if res, ok = c.exec(kWrite, stmt); !ok {
				return nil
			}
		} else {
			var err error
			if res, err = sess.Exec(stmt); err != nil {
				return err
			}
		}
		for _, uid := range uids[:n] {
			t.texp[uid] = xtime.Max(t.texp[uid], res.At+xtime.Time(life))
		}
		uids = uids[n:]
	}
	return nil
}

func (w *expiringViews) loop(c *client, deadline time.Time) {
	for c.running(deadline) {
		// Re-insert the users whose row expired, evRowsPerStmt rows per
		// statement sharing one lifetime. A timed insert never returns an
		// error: a failed statement is counted by exec.
		for _, t := range w.tables {
			expired := w.expired[:0]
			for uid, texp := range t.texp {
				if texp != 0 && texp <= w.now {
					expired = append(expired, int64(uid))
				}
			}
			w.expired = expired
			for len(expired) > 0 {
				n := min(len(expired), evRowsPerStmt)
				_ = w.insert(nil, c, c.rng, t, expired[:n], t.life(c.rng), true)
				expired = expired[n:]
			}
		}
		for _, v := range evViews {
			c.exec(kRefresh, c.lit("REFRESH VIEW ").lit(v.name).text())
		}
		before := w.remote.Stats()
		c.call(kRefresh, spanWireMat, func() (uint8, error) {
			return tagNone, w.remote.MaterializeBudget(evRemoteQuery, true, evPatchBudget)
		})
		after := w.remote.Stats()
		w.matBytes += after.BytesSent + after.BytesReceived - before.BytesSent - before.BytesReceived

		for i := 0; i < evTicks && c.running(deadline); i++ {
			w.now++
			if res, ok := c.exec(kAdvance, c.lit("ADVANCE TO ").num(int64(w.now)).text()); ok && res.At != w.now {
				c.bad.add("ADVANCE TO %d answered at tick %d", w.now, res.At)
			}
			// One view per tick, in turn: every view is read every third tick.
			v := evViews[int(w.now)%len(evViews)]
			if res, ok := c.exec(kRead, c.lit("SELECT * FROM ").lit(v.name).text()); ok {
				c.check(v.name, func() error {
					if err := checkStamp(res); err != nil {
						return err
					}
					return w.checkBase(res.Rel, res.At, v.query)
				})
			}
			var rel *relation.Relation
			remats := w.remote.Rematerializations
			if c.call(kRemote, spanWireRead, func() (uint8, error) {
				var err error
				rel, err = w.remote.Read(w.now)
				if w.remote.Rematerializations != remats {
					return tagRemat, err
				}
				return tagNone, err
			}) {
				c.check("remote read", func() error { return w.checkBase(rel, w.now, evRemoteQuery) })
			}
		}
	}
}

// checkBase compares a read at tick at with query run on the base
// tables now, at the same tick.
func (w *expiringViews) checkBase(got *relation.Relation, at xtime.Time, query string) error {
	base, err := w.checker.Exec(query)
	if err != nil {
		return err
	}
	return checkSameAnswer(got, at, base)
}

func (w *expiringViews) counters() wireCounters {
	st := w.remote.Stats()
	return wireCounters{
		reads:   int64(w.remote.LocalReads + w.remote.Rematerializations),
		remats:  int64(w.remote.Rematerializations),
		patches: int64(w.remote.PatchesApplied),
		bytes:   st.BytesSent + st.BytesReceived - w.matBytes,
	}
}

// layer adds the wire metrics: counter deltas of the remote client over
// the phase, and the mean of the Read spans that re-materialised.
func (w *expiringViews) layer(ph *phase, out map[string]float64) {
	a := w.counters()
	b := w.wire0
	reads := float64(a.reads - b.reads)
	out["wire.remat_ratio"] = ratio(float64(a.remats-b.remats), reads)
	out["wire.remat_us"] = ph.spans.meanUs(spanWireRead, tagRemat)
	out["wire.bytes_per_read"] = ratio(float64(a.bytes-b.bytes), reads)
	out["wire.patches_per_read"] = ratio(float64(a.patches-b.patches), reads)
}

func (w *expiringViews) release() error {
	var err error
	if w.remote != nil {
		err = w.remote.Close()
	}
	if serr := w.srv.Close(); err == nil {
		err = serr
	}
	return err
}
