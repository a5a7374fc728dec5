package pqueue

import (
	"container/heap"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"expdb/internal/xtime"
)

func TestPushPopOrdered(t *testing.T) {
	q := New[string](4)
	q.Push(5, "e")
	q.Push(1, "a")
	q.Push(3, "c")
	q.Push(2, "b")
	var got []string
	for {
		it, ok := q.Pop()
		if !ok {
			break
		}
		got = append(got, it.Value)
	}
	want := []string{"a", "b", "c", "e"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order = %v, want %v", got, want)
		}
	}
}

func TestPeekAndNextAt(t *testing.T) {
	q := New[int](0)
	if _, ok := q.Peek(); ok {
		t.Error("Peek on empty must report !ok")
	}
	if q.NextAt() != xtime.Infinity {
		t.Error("NextAt on empty must be Infinity")
	}
	q.Push(7, 70)
	it, ok := q.Peek()
	if !ok || it.At != 7 || it.Value != 70 {
		t.Errorf("Peek = %+v, %v", it, ok)
	}
	if q.Len() != 1 {
		t.Error("Peek must not remove")
	}
}

func TestPopDue(t *testing.T) {
	q := New[int](0)
	for i := 1; i <= 10; i++ {
		q.Push(xtime.Time(i), i)
	}
	due := q.PopDue(4)
	if len(due) != 4 {
		t.Fatalf("PopDue(4) = %d items, want 4", len(due))
	}
	for i, it := range due {
		if it.At != xtime.Time(i+1) {
			t.Errorf("due[%d].At = %v, want %d", i, it.At, i+1)
		}
	}
	if q.Len() != 6 {
		t.Errorf("remaining = %d, want 6", q.Len())
	}
	if len(q.PopDue(4)) != 0 {
		t.Error("second PopDue(4) must be empty")
	}
}

func TestPopEmpty(t *testing.T) {
	var q Queue[int]
	if _, ok := q.Pop(); ok {
		t.Error("Pop on zero-value queue must report !ok")
	}
}

func TestQuickHeapOrder(t *testing.T) {
	f := func(prios []uint16) bool {
		q := New[int](len(prios))
		for i, p := range prios {
			q.Push(xtime.Time(p), i)
		}
		want := make([]xtime.Time, len(prios))
		for i, p := range prios {
			want[i] = xtime.Time(p)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for _, w := range want {
			it, ok := q.Pop()
			if !ok || it.At != w {
				return false
			}
		}
		_, ok := q.Pop()
		return !ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickPopDuePartition(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		q := New[int](0)
		n := rng.Intn(100)
		for i := 0; i < n; i++ {
			q.Push(xtime.Time(rng.Intn(50)), i)
		}
		tau := xtime.Time(rng.Intn(50))
		due := q.PopDue(tau)
		for _, it := range due {
			if it.At > tau {
				t.Fatalf("due item at %v > tau %v", it.At, tau)
			}
		}
		if q.NextAt() <= tau && q.Len() > 0 {
			t.Fatalf("left item due at %v ≤ tau %v in queue", q.NextAt(), tau)
		}
	}
}

// BenchmarkPopDue models the engine's expiry schedule: a queue of ~1000
// pending expirations from which each Advance pops the handful now due
// and new inserts push replacements.
func BenchmarkPopDue(b *testing.B) {
	type event struct{ table, key string }
	q := New[event](1024)
	for i := 0; i < 1024; i++ {
		q.Push(xtime.Time(i%100+1), event{"t", "k"})
	}
	now := xtime.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now++
		for _, it := range q.PopDue(now) {
			q.Push(it.At+100, it.Value)
		}
	}
}

// refHeap is container/heap's ordering, the reference the in-place sift
// must reproduce (ties included: trigger dispatch order depends on it).
type refHeap []Item[int]

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].At < h[j].At }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(Item[int])) }
func (h *refHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// TestTieOrderMatchesContainerHeap replays a random stream of pushes and
// due-pops with many equal priorities against container/heap and
// requires the same items in the same order.
func TestTieOrderMatchesContainerHeap(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	q := New[int](0)
	ref := &refHeap{}
	for step := 0; step < 5000; step++ {
		if r.Intn(3) > 0 {
			at := xtime.Time(r.Intn(20))
			q.Push(at, step)
			heap.Push(ref, Item[int]{At: at, Value: step})
			continue
		}
		tau := xtime.Time(r.Intn(20))
		got := q.PopDue(tau)
		var want []Item[int]
		for ref.Len() > 0 && (*ref)[0].At <= tau {
			want = append(want, heap.Pop(ref).(Item[int]))
		}
		if len(got) != len(want) {
			t.Fatalf("step %d: popped %d items, want %d", step, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d: item %d = %v, want %v", step, i, got[i], want[i])
			}
		}
	}
}
