package main

import (
	"fmt"
	"slices"

	"expdb/internal/relation"
	"expdb/internal/sql"
	"expdb/internal/tuple"
	"expdb/internal/value"
	"expdb/internal/xtime"
)

// keyModel is one client's record of the rows it wrote to a table with
// schema (k INT, v INT). Client c owns the keys k = 2*s + c for sequence
// numbers s = 0, 1, 2, ...; each key is written once, so its expiration
// time is exactly the one its INSERT set. v is a function of the key and
// lies in the client's own band [c*vSpan, (c+1)*vSpan), so a range over
// v in that band touches only the client's own rows: no answer depends
// on how the two clients' writes interleave.
type keyModel struct {
	client int
	vSpan  int64
	texp   []xtime.Time // by sequence number
	// byV lists, for each v of the band (offset from its start), the
	// sequence numbers of the keys with that v, live ones at least.
	byV [][]int64
}

func newKeyModel(client int, vSpan int64, indexV bool) *keyModel {
	m := &keyModel{client: client, vSpan: vSpan}
	if indexV {
		m.byV = make([][]int64, vSpan)
	}
	return m
}

func (m *keyModel) key(s int64) int64 { return 2*s + int64(m.client) }

// val is the v column of key k: a fixed pseudo-random point in the
// client's band.
func (m *keyModel) val(k int64) int64 { return m.band() + m.offset(k) }

func (m *keyModel) band() int64          { return int64(m.client) * m.vSpan }
func (m *keyModel) offset(k int64) int64 { return int64(mix64(uint64(k)) % uint64(m.vSpan)) }

// next is the sequence number the client's next INSERT uses.
func (m *keyModel) next() int64 { return int64(len(m.texp)) }

// add records an acknowledged INSERT of sequence number s (== next()).
func (m *keyModel) add(s int64, texp xtime.Time) {
	m.texp = append(m.texp, texp)
	if m.byV != nil {
		i := m.offset(m.key(s))
		m.byV[i] = append(m.byV[i], s)
	}
}

// preload inserts n fresh keys through sess as one statement, EXPIRES IN
// ttl, and records them.
func (m *keyModel) preload(sess *sql.Session, c *client, table string, n int64, ttl xtime.Time) error {
	c.lit("INSERT INTO ").lit(table).lit(" VALUES ")
	s := m.next()
	for i := int64(0); i < n; i++ {
		if i > 0 {
			c.lit(", ")
		}
		k := m.key(s + i)
		c.lit("(").num(k).lit(", ").num(m.val(k)).lit(")")
	}
	res, err := sess.Exec(c.lit(" EXPIRES IN ").num(int64(ttl)).text())
	if err != nil {
		return err
	}
	for i := int64(0); i < n; i++ {
		m.add(s+i, res.At+ttl)
	}
	return nil
}

// insert is the client's timed INSERT of its next key, EXPIRES IN ttl.
func (m *keyModel) insert(c *client, table string, ttl xtime.Time) {
	s := m.next()
	k := m.key(s)
	q := c.lit("INSERT INTO ").lit(table).lit(" VALUES (").num(k).lit(", ").num(m.val(k)).lit(") EXPIRES IN ").num(int64(ttl)).text()
	if res, ok := c.exec(kWrite, q); ok {
		m.add(s, res.At+ttl)
	}
}

// rowList is a reusable list of expected rows whose tuples share one
// backing array of values: once both have grown, refilling it
// allocates nothing.
type rowList struct {
	rows []relation.Row
	vals []value.Value
}

func (l *rowList) reset() {
	l.rows, l.vals = l.rows[:0], l.vals[:0]
}

// add appends the row (vs...) expiring at texp.
func (l *rowList) add(texp xtime.Time, vs ...int64) {
	at := len(l.vals)
	for _, v := range vs {
		l.vals = append(l.vals, value.Int(v))
	}
	l.rows = append(l.rows, relation.Row{Tuple: tuple.Tuple(l.vals[at:len(l.vals):len(l.vals)]), Texp: texp})
}

// addSeq appends the model's row of sequence number s.
func (m *keyModel) addSeq(dst *rowList, s int64) {
	k := m.key(s)
	dst.add(m.texp[s], k, m.val(k))
}

// wantPoint fills dst with the answer to SELECT * FROM t WHERE k =
// key(s) at tick at.
func (m *keyModel) wantPoint(s int64, at xtime.Time, dst *rowList) []relation.Row {
	dst.reset()
	if s >= 0 && s < int64(len(m.texp)) && m.texp[s] > at {
		m.addSeq(dst, s)
	}
	return dst.rows
}

// wantRange fills dst with the answer to SELECT * FROM t WHERE v >= lo
// AND v < hi at tick at, for a range within the client's band. Entries
// dead at at are dropped from the v lists for good: the clock never
// moves back.
func (m *keyModel) wantRange(lo, hi int64, at xtime.Time, dst *rowList) []relation.Row {
	dst.reset()
	for i := lo - m.band(); i < hi-m.band(); i++ {
		live := m.byV[i][:0]
		for _, s := range m.byV[i] {
			if m.texp[s] > at {
				live = append(live, s)
				m.addSeq(dst, s)
			}
		}
		m.byV[i] = live
	}
	return dst.rows
}

// wantAgg fills dst with the answer to SELECT COUNT(*), MIN(k), MAX(k)
// FROM t WHERE v >= lo AND v < hi at tick at: one row whose expiration
// time is the earliest of the rows it counts (the count changes then),
// or no row when nothing matches.
func (m *keyModel) wantAgg(lo, hi int64, at xtime.Time, dst *rowList) []relation.Row {
	rows := m.wantRange(lo, hi, at, dst)
	if len(rows) == 0 {
		return rows
	}
	minK, maxK, texp := rows[0].Tuple[0].AsInt(), rows[0].Tuple[0].AsInt(), rows[0].Texp
	for _, r := range rows[1:] {
		k := r.Tuple[0].AsInt()
		minK, maxK = min(minK, k), max(maxK, k)
		texp = xtime.Min(texp, r.Texp)
	}
	n := int64(len(rows))
	dst.reset()
	dst.add(texp, n, minK, maxK)
	return dst.rows
}

// aliveAt returns every row of the model alive at tick at.
func (m *keyModel) aliveAt(at xtime.Time) []relation.Row {
	var l rowList
	for s, texp := range m.texp {
		if texp > at {
			m.addSeq(&l, int64(s))
		}
	}
	return l.rows
}

// checkStamp checks a query result's validity stamp: the answer must be
// valid at the tick it reports.
func checkStamp(res *sql.Result) error {
	if res.Rel == nil {
		return fmt.Errorf("query returned no relation")
	}
	if v := res.Validity; res.At < v.At || res.At >= v.ValidUntil {
		return fmt.Errorf("answer at tick %d outside its validity [%d, %d)", res.At, v.At, v.ValidUntil)
	}
	return nil
}

// scratch holds the buffers of a client's answer checks. Once they have
// grown, checking an answer against the key model allocates nothing, so
// checks that run while another client works do not add to its
// allocs_per_op.
type scratch struct {
	want rowList
	got  []relation.Row
}

// checkAnswer checks a query result against the rows the model expects
// at the result's own tick, expiration times included. It sorts want in
// place.
func (sc *scratch) checkAnswer(res *sql.Result, want []relation.Row) error {
	if err := checkStamp(res); err != nil {
		return err
	}
	sc.got = sc.got[:0]
	res.Rel.AliveAt(res.At, func(r relation.Row) { sc.got = append(sc.got, r) })
	return sameRows(sc.got, want, true)
}

// sameRows compares two row sets, sorting both in place; with withTexp
// the expiration times must match too. It returns the first difference.
func sameRows(g, w []relation.Row, withTexp bool) error {
	if len(g) != len(w) {
		return fmt.Errorf("got %d rows, want %d (first got %v, first want %v)",
			len(g), len(w), first(g), first(w))
	}
	slices.SortFunc(g, compareRows)
	slices.SortFunc(w, compareRows)
	for i := range g {
		if !g[i].Tuple.Equal(w[i].Tuple) {
			return fmt.Errorf("row %d: got %v, want %v", i, g[i].Tuple, w[i].Tuple)
		}
		if withTexp && g[i].Texp != w[i].Texp {
			return fmt.Errorf("row %v: texp %d, want %d", g[i].Tuple, g[i].Texp, w[i].Texp)
		}
	}
	return nil
}

func compareRows(a, b relation.Row) int { return a.Tuple.Compare(b.Tuple) }

func first(rows []relation.Row) any {
	if len(rows) == 0 {
		return "none"
	}
	return rows[0].Tuple
}

// checkSameAnswer checks a view (or remote) read against the same query
// evaluated over the base tables at the same tick. Only the tuples are
// compared: the paper's guarantee is that the two snapshots agree at
// every tick, and a patched or maintained copy may carry a later
// expiration time for a tuple than a fresh evaluation derives.
func checkSameAnswer(got *relation.Relation, gotAt xtime.Time, base *sql.Result) error {
	if base.At != gotAt {
		return fmt.Errorf("base query ran at tick %d, read at tick %d", base.At, gotAt)
	}
	return sameRows(got.Rows(gotAt), base.Rel.Rows(base.At), false)
}

// mix64 is the splitmix64 finaliser: a cheap bijective scramble.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
