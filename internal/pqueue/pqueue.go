// Package pqueue implements a generic expiration min-heap: items ordered
// by a Time priority with O(log n) push/pop. The paper uses such a queue
// twice: to drive expiration sweeps with predictable latency (§3.2, via
// [24]) and as the helper structure that patches materialised difference
// expressions (Theorem 3, §3.4.2), where it "contains at most |R ∩ S|
// elements" and can be built in O(n log n).
package pqueue

import (
	"expdb/internal/xtime"
)

// Item is an element with an expiration priority.
type Item[T any] struct {
	At    xtime.Time
	Value T
}

// Queue is an expiration min-heap. The zero value is ready to use. The
// heap is sifted in place on the typed slice — no interface boxing — so
// Push and Pop allocate nothing beyond the slice's growth; the order of
// equal priorities is the one container/heap would produce.
type Queue[T any] struct {
	h     []Item[T]
	stats Stats
}

// Stats counts cumulative queue activity. The queue is externally
// synchronised (its users hold their own locks), so these are plain
// integers; read them via the Stats method.
type Stats struct {
	Pushes int64 `json:"pushes"` // items enqueued
	Pops   int64 `json:"pops"`   // items dequeued (Pop and PopDue)
	MaxLen int64 `json:"max_len"`
}

// Stats returns the activity counters so far.
func (q *Queue[T]) Stats() Stats { return q.stats }

// New returns an empty queue with capacity hint n.
func New[T any](n int) *Queue[T] {
	q := &Queue[T]{}
	q.h = make([]Item[T], 0, n)
	return q
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.h) }

// Push enqueues value with priority at.
func (q *Queue[T]) Push(at xtime.Time, value T) {
	q.h = append(q.h, Item[T]{At: at, Value: value})
	q.up(len(q.h) - 1)
	q.stats.Pushes++
	if n := int64(len(q.h)); n > q.stats.MaxLen {
		q.stats.MaxLen = n
	}
}

// Peek returns the earliest item without removing it; ok is false when the
// queue is empty.
func (q *Queue[T]) Peek() (Item[T], bool) {
	if len(q.h) == 0 {
		return Item[T]{}, false
	}
	return q.h[0], true
}

// Pop removes and returns the earliest item; ok is false when empty.
func (q *Queue[T]) Pop() (Item[T], bool) {
	if len(q.h) == 0 {
		return Item[T]{}, false
	}
	q.stats.Pops++
	return q.pop(), true
}

// PopDue removes and returns every item with At ≤ tau, earliest first.
// These are the items whose expiration has passed at time tau.
func (q *Queue[T]) PopDue(tau xtime.Time) []Item[T] {
	var due []Item[T]
	for len(q.h) > 0 && q.h[0].At <= tau {
		due = append(due, q.pop())
	}
	q.stats.Pops += int64(len(due))
	return due
}

// NextAt returns the priority of the earliest item, or Infinity when empty.
func (q *Queue[T]) NextAt() xtime.Time {
	if len(q.h) == 0 {
		return xtime.Infinity
	}
	return q.h[0].At
}

// pop removes the root: the last item moves to the root and sifts down,
// and the vacated slot is cleared so the queue keeps no reference to a
// popped value.
func (q *Queue[T]) pop() Item[T] {
	n := len(q.h) - 1
	top := q.h[0]
	q.h[0] = q.h[n]
	q.h[n] = Item[T]{}
	q.h = q.h[:n]
	q.down(0)
	return top
}

// up sifts the item at j towards the root.
func (q *Queue[T]) up(j int) {
	h := q.h
	for j > 0 {
		i := (j - 1) / 2
		if h[j].At >= h[i].At {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// down sifts the item at i towards the leaves.
func (q *Queue[T]) down(i int) {
	h := q.h
	n := len(h)
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && h[r].At < h[j].At {
			j = r
		}
		if h[j].At >= h[i].At {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}
