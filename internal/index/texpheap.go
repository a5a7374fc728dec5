package index

import (
	"expdb/internal/metrics"
	"expdb/internal/xtime"
)

// TexpHeap is the per-table texp-ordered index: a binary min-heap of
// (texp, set key) pairs with lazy deletion. It is the engine's only
// expiration index — eager advances, lazy sweeps and recovery replay all
// pop it — and it makes the two operations that would otherwise scan the
// table cheap:
//
//   - NextExpiration (the per-table texp(e) floor) becomes a peek after
//     discarding stale tops, and
//   - expiry-candidate enumeration (every row with texp <= tick) becomes
//     O(k log n) pops instead of a full-table walk.
//
// Deletes and texp extensions do not search the heap; they simply leave a
// stale pair behind. A pair is authoritative only if the owning
// relation's current texp for the key still equals the pair's texp — the
// relation verifies that through the current callback, and stale pairs
// are discarded as they surface. Owners bound the backlog with Rebuild.
// Infinite texp is never pushed (those rows never expire, so they have no
// business in an expiration queue).
type TexpHeap struct {
	h     []texpPair
	stats *TexpStats
}

// TexpStats aggregates the upkeep of every TexpHeap sharing it. An engine
// hands one to all of its tables, so the totals are engine-wide and
// readable without any table lock.
type TexpStats struct {
	// Pending is the number of retained pairs, stale ones included.
	Pending metrics.Gauge
	// StaleDropped counts superseded pairs discarded, on pop or rebuild.
	StaleDropped metrics.Counter
	// Rebuilds counts Rebuild calls that shed superseded pairs.
	Rebuilds metrics.Counter
}

type texpPair struct {
	texp xtime.Time
	key  string
}

// NewTexpHeap returns an empty heap reporting into stats (nil: private
// counters nobody reads).
func NewTexpHeap(stats *TexpStats) *TexpHeap {
	if stats == nil {
		stats = new(TexpStats)
	}
	return &TexpHeap{stats: stats}
}

// Len reports the number of retained pairs, stale ones included.
func (th *TexpHeap) Len() int { return len(th.h) }

// Push records that key currently expires at texp. Infinity is ignored.
func (th *TexpHeap) Push(key string, texp xtime.Time) {
	if texp == xtime.Infinity {
		return
	}
	th.h = append(th.h, texpPair{texp: texp, key: key})
	th.stats.Pending.Add(1)
	i := len(th.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if th.h[p].texp <= th.h[i].texp {
			break
		}
		th.h[p], th.h[i] = th.h[i], th.h[p]
		i = p
	}
}

// NextAfter returns the smallest authoritative texp strictly greater
// than tau, or Infinity. current reports the key's live expiration time;
// a top whose texp disagrees (or whose key is gone) is stale and is
// discarded destructively. Authoritative pairs at or below tau (rows
// logically expired but not yet swept, under lazy removal) are set aside
// and re-pushed — they must survive for the sweep that will remove them.
// The side buffer is empty right after PopDue(tau) and bounded by one
// sweep period's backlog under lazy removal.
func (th *TexpHeap) NextAfter(tau xtime.Time, current func(key string) (xtime.Time, bool)) xtime.Time {
	var side []texpPair
	next := xtime.Infinity
	for len(th.h) > 0 {
		top := th.h[0]
		t, ok := current(top.key)
		if !ok || t != top.texp {
			th.pop()
			th.stats.StaleDropped.Inc()
			continue
		}
		if top.texp > tau {
			next = top.texp
			break
		}
		side = append(side, th.pop())
	}
	for _, p := range side {
		th.Push(p.key, p.texp)
	}
	return next
}

// PopDue pops every authoritative pair with texp <= tick, calling expire
// for each in ascending texp order. Stale pairs encountered on the way
// are discarded silently. Returns the number of expirations delivered.
func (th *TexpHeap) PopDue(tick xtime.Time, current func(key string) (xtime.Time, bool), expire func(key string, texp xtime.Time)) int {
	n := 0
	for len(th.h) > 0 && th.h[0].texp <= tick {
		top := th.pop()
		if t, ok := current(top.key); ok && t == top.texp {
			expire(top.key, top.texp)
			n++
		} else {
			th.stats.StaleDropped.Inc()
		}
	}
	return n
}

// Rebuild replaces every pair with exactly the live ones each enumerates
// (the owner's stored rows), counting the pairs it sheds as stale. Owners
// call it to backfill a fresh heap, and once deletes and lifetime
// extensions have left the heap mostly superseded pairs: the O(n) heapify
// is paid for by the pushes that grew the backlog.
func (th *TexpHeap) Rebuild(each func(push func(key string, texp xtime.Time))) {
	old := len(th.h)
	th.h = nil // a fresh slice, so memory shrinks with the live set
	each(func(key string, texp xtime.Time) {
		if texp != xtime.Infinity {
			th.h = append(th.h, texpPair{texp: texp, key: key})
		}
	})
	for i := len(th.h)/2 - 1; i >= 0; i-- {
		th.down(i)
	}
	shed := int64(old - len(th.h))
	th.stats.Pending.Add(-shed)
	if shed > 0 {
		th.stats.StaleDropped.Add(shed)
		th.stats.Rebuilds.Inc()
	}
}

// Release empties the heap and withdraws its pairs from the shared
// Pending gauge; the owner is going away (a dropped table).
func (th *TexpHeap) Release() {
	th.stats.Pending.Add(-int64(len(th.h)))
	th.h = nil
}

func (th *TexpHeap) pop() texpPair {
	top := th.h[0]
	last := len(th.h) - 1
	th.h[0] = th.h[last]
	th.h[last] = texpPair{} // release the key string
	th.h = th.h[:last]
	th.stats.Pending.Add(-1)
	th.down(0)
	return top
}

// down sifts the pair at i towards the leaves until the heap order holds.
func (th *TexpHeap) down(i int) {
	n := len(th.h)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && th.h[l].texp < th.h[small].texp {
			small = l
		}
		if r < n && th.h[r].texp < th.h[small].texp {
			small = r
		}
		if small == i {
			return
		}
		th.h[i], th.h[small] = th.h[small], th.h[i]
		i = small
	}
}
