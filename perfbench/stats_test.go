package main

import (
	"math"
	"testing"
	"time"

	"expdb/internal/engine"
	"expdb/internal/metrics"
)

func seq(n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = int64(i + 1)
	}
	return s
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want int64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // exactly 10 samples above the 990th
		{999, 0.99, 0, false},   // 9 above: omitted
		{20, 0.50, 10, true},
		{19, 0.50, 0, false},
		{0, 0.50, 0, false},
		{2000, 0.99, 1980, true},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if ok != tc.ok || got != tc.want {
			t.Errorf("percentile(1..%d, %v) = %d, %v; want %d, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
}

// evenPhase is a one-client phase whose samples of each kind (1..n) and
// 100 operations per window are spread evenly over the windows, with
// 1 ms of answer checks per window of 10 ms.
func evenPhase(n map[int]int) *phase {
	c := &client{}
	for k, cnt := range n {
		c.lat[k] = seq(cnt)
	}
	c.marks = make([]mark, windows+1)
	for w := range c.marks {
		for k, cnt := range n {
			c.marks[w].lat[k] = cnt * w / windows
		}
		c.marks[w].ops = int64(100 * w)
		c.marks[w].checkNanos = int64(w) * 1e6
	}
	return &phase{clients: []*client{c}, winLen: 10 * time.Millisecond}
}

func TestBlockMedians(t *testing.T) {
	ph := evenPhase(map[int]int{kRead: 3000, kWrite: 1000})
	out := map[string]float64{}
	missing := latencyMetrics(out, ph, map[int]string{kRead: "read", kWrite: "write"})
	// read p99: blocks 1..1000, 1001..2000, 2001..3000 give 990, 1990,
	// 2990 ns; p50 over ten blocks of 300 gives 150, 450, ... 2850 ns.
	if !near(out["read_p99_us"], 1.990) || !near(out["read_p50_us"], 1.500) || !near(out["write_p50_us"], 0.500) {
		t.Errorf("latency metrics %v", out)
	}
	if _, ok := out["write_p99_us"]; ok || len(missing) != 1 {
		t.Errorf("write_p99_us from blocks of 333 samples: out %v, missing %v", out, missing)
	}
	// 300 operations per block of 30 ms, 3 ms of which were checks.
	if r := ph.blockRate(throughputBlocks); !near(r, 300/0.027) {
		t.Errorf("blockRate = %v", r)
	}
}

func TestRatioBases(t *testing.T) {
	if ratio(3, 0) != 0 || ratio(3, 4) != 0.75 {
		t.Error("ratio")
	}
	if perKop(5, 2000) != 2.5 || perKop(5, 0) != 0 {
		t.Error("perKop")
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
}

func TestCounterDeltas(t *testing.T) {
	d := deltaHist(10, 1000, 14, 1800)
	if d.count != 4 || d.sum != 800 || d.mean() != 200 {
		t.Errorf("histogram delta %+v mean %v", d, d.mean())
	}
	if (histDelta{}).mean() != 0 {
		t.Error("empty histogram delta has a mean")
	}
	a := engine.ResultCacheMetrics{Hits: 10, Misses: 5, Invalidations: 1, EpochInvalidations: 2, Evictions: 3,
		HitNanos: metrics.HistogramSnapshot{Count: 10, Sum: 5000}}
	b := engine.ResultCacheMetrics{Hits: 30, Misses: 15, Invalidations: 4, EpochInvalidations: 6, Evictions: 3,
		HitNanos: metrics.HistogramSnapshot{Count: 30, Sum: 9000}}
	d2 := cacheDiff(a, b)
	want := cacheDelta{hits: 20, misses: 10, invalidations: 7, evictions: 0, hitCount: 20, hitNanos: 4000}
	if d2 != want {
		t.Fatalf("cacheDiff = %+v, want %+v", d2, want)
	}
	d2.sub(cacheDelta{hits: 5, misses: 5, hitCount: 5, hitNanos: 1000})
	d2.add(cacheDelta{invalidations: 1})
	if d2 != (cacheDelta{hits: 15, misses: 5, invalidations: 8, hitCount: 15, hitNanos: 3000}) {
		t.Errorf("after sub/add: %+v", d2)
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := &tracer{keepCap: 10}
	tr.cur = []span{
		{name: spanOp, parent: -1, start: 0, end: 100},
		{name: spanParse, parent: 0, start: 10, end: 30},
		{name: spanSelect, tag: tagHit, parent: 0, start: 30, end: 90},
	}
	tr.fold()
	s := mergeSpans([]*tracer{tr})
	self := s.layerSelfUs(1)
	if !near(self["bench"], 0.020) || !near(self["sql"], 0.080) {
		t.Errorf("self times %v", self)
	}
	if !near(s.meanUs(spanSelect, tagHit), 0.060) || s.meanUs(spanSelect, tagNone) != 0 {
		t.Errorf("select means %v %v", s.meanUs(spanSelect, tagHit), s.meanUs(spanSelect, tagNone))
	}
	if len(tr.kept) != 3 {
		t.Errorf("kept %d spans", len(tr.kept))
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
