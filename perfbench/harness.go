package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"expdb/internal/engine"
	"expdb/internal/sql"
)

// Operation kinds, each with its own latency samples.
const (
	kRead       = iota // SELECT, view reads included
	kWrite             // INSERT
	kAdvance           // ADVANCE TO
	kRemote            // wire.Client.Read
	kRefresh           // REFRESH VIEW and the remote copy's re-materialisation
	kCheckpoint        // engine.Engine.Checkpoint
	numKinds
)

var execSpan = [numKinds]uint8{kRead: spanSelect, kWrite: spanInsert, kAdvance: spanAdvance, kRefresh: spanRefresh}

// failures collects wrong answers from every client. Any wrong answer
// makes the run incorrect; the first few are printed.
type failures struct {
	n    atomic.Int64
	mu   sync.Mutex
	msgs []string
}

func (f *failures) add(format string, args ...any) {
	if f.n.Add(1) > 5 {
		return
	}
	f.mu.Lock()
	f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	f.mu.Unlock()
}

// client is one closed-loop load generator: it sends its next statement
// only after the previous one completed. Each client has its own SQL
// session (a Session is not safe for concurrent use) on the shared
// engine, its own random stream and its own samples.
type client struct {
	id   int
	rng  *rand.Rand
	sess *sql.Session
	tr   *tracer // nil in untraced phases
	bad  *failures
	buf  []byte  // the statement being built
	sc   scratch // buffers of the answer checks

	lat        [numKinds][]int64 // latency samples, ns (untraced phases)
	n          [numKinds]int64   // operations attempted, by kind
	ops        int64             // operations attempted
	failed     int64             // operations that returned an error
	checkNanos int64             // time spent checking answers

	marks  []mark // counters at the start of each window of the phase
	winEnd time.Time
	winLen time.Duration

	// With a single client nothing else allocates while it checks an
	// answer, so the allocations of its checks can be measured and left
	// out of allocs_per_op; this is how expiring-views leaves out its
	// checks, which run SQL against the base tables. Checks against a
	// key model, which may run beside another client, allocate nothing
	// (see scratch). checkCache likewise collects the result-cache
	// traffic of the SQL checks.
	soleClient  bool
	eng         *engine.Engine
	checkAllocs uint64
	checkCache  cacheDelta
}

func newClient(id int, seed int64, sess *sql.Session, bad *failures) *client {
	return &client{id: id, rng: rand.New(rand.NewSource(seed*1000 + int64(id))), sess: sess, bad: bad}
}

// lit and num append text and an integer to the statement being built,
// and text returns it and starts the next one:
//
//	c.lit("ADVANCE TO ").num(7).text()
//
// Building a statement allocates only its string, which is the program's
// input.
func (c *client) lit(s string) *client {
	c.buf = append(c.buf, s...)
	return c
}

func (c *client) num(n int64) *client {
	c.buf = strconv.AppendInt(c.buf, n, 10)
	return c
}

func (c *client) text() string {
	s := string(c.buf)
	c.buf = c.buf[:0]
	return s
}

// exec runs one statement as operation kind k. Untraced it is one
// Session.Exec call, timed; traced it is sql.Parse then Session.ExecStmt,
// each in its own span under the operation's root span. An error counts
// the operation as failed.
func (c *client) exec(k int, q string) (*sql.Result, bool) {
	c.ops++
	c.n[k]++
	var res *sql.Result
	var err error
	if c.tr == nil {
		t0 := time.Now()
		res, err = c.sess.Exec(q)
		c.lat[k] = append(c.lat[k], int64(time.Since(t0)))
	} else {
		c.tr.beginOp()
		sp := c.tr.begin(spanParse)
		stmt, perr := sql.Parse(q)
		c.tr.end(sp, tagNone)
		err = perr
		if err == nil {
			sp = c.tr.begin(execSpan[k])
			res, err = c.sess.ExecStmt(stmt)
			tag := uint8(tagNone)
			if err == nil && res.Cached {
				tag = tagHit
			}
			c.tr.end(sp, tag)
		}
		c.tr.endOp()
	}
	if err != nil {
		c.failed++
		if c.failed <= 3 {
			fmt.Fprintf(os.Stderr, "client %d: %s: %v\n", c.id, q, err)
		}
		return nil, false
	}
	return res, true
}

// call times a non-SQL operation of kind k: fn runs inside a span named
// name when traced, and reports the span's tag.
func (c *client) call(k int, name uint8, fn func() (uint8, error)) bool {
	c.ops++
	c.n[k]++
	var err error
	if c.tr == nil {
		t0 := time.Now()
		_, err = fn()
		c.lat[k] = append(c.lat[k], int64(time.Since(t0)))
	} else {
		c.tr.beginOp()
		sp := c.tr.begin(name)
		var tag uint8
		tag, err = fn()
		c.tr.end(sp, tag)
		c.tr.endOp()
	}
	if err != nil {
		c.failed++
		if c.failed <= 3 {
			fmt.Fprintf(os.Stderr, "client %d: %s: %v\n", c.id, spanNames[name], err)
		}
		return false
	}
	return true
}

// check runs an answer check outside the timed operation; its time is
// excluded from throughput and, traced, recorded as a bench.check span.
func (c *client) check(what string, fn func() error) {
	var allocs0 uint64
	var cache0 engine.ResultCacheMetrics
	if c.soleClient {
		allocs0 = readAllocs()
		cache0, _ = c.eng.ResultCacheStats()
	}
	t0 := time.Now()
	var err error
	if c.tr == nil {
		err = fn()
	} else {
		c.tr.beginOp()
		sp := c.tr.begin(spanCheck)
		err = fn()
		c.tr.end(sp, tagNone)
		c.tr.endOp()
	}
	c.checkNanos += int64(time.Since(t0))
	if c.soleClient {
		cache1, _ := c.eng.ResultCacheStats()
		c.checkCache.add(cacheDiff(cache0, cache1))
		c.checkAllocs += readAllocs() - allocs0
	}
	if err != nil {
		c.bad.add("client %d: %s: %v", c.id, what, err)
	}
}

// resetPhase clears the client's per-phase samples and counters for a
// phase starting at start and lasting d.
func (c *client) resetPhase(tr *tracer, start time.Time, d time.Duration) {
	c.tr = tr
	c.lat = [numKinds][]int64{}
	c.n = [numKinds]int64{}
	c.ops, c.failed, c.checkNanos, c.checkAllocs = 0, 0, 0, 0
	c.checkCache = cacheDelta{}
	c.winLen = d / windows
	c.winEnd = start.Add(c.winLen)
	c.marks = []mark{{}}
}

// windows is how many equal slices of wall time a phase is cut into.
// Throughput and latency percentiles are computed over blocks of
// consecutive windows and reported as the median over the blocks, so
// noise from outside the program that lasts a block or two does not move
// them.
const windows = 30

// mark is a client's cumulative counters at a window boundary.
type mark struct {
	lat        [numKinds]int
	ops        int64
	checkNanos int64
}

func (c *client) mark() mark {
	m := mark{ops: c.ops, checkNanos: c.checkNanos}
	for k := range c.lat {
		m.lat[k] = len(c.lat[k])
	}
	return m
}

// running reports whether the phase is still on, and marks the window
// boundaries passed since the last call.
func (c *client) running(deadline time.Time) bool {
	now := time.Now()
	for len(c.marks) < windows && !now.Before(c.winEnd) {
		c.marks = append(c.marks, c.mark())
		c.winEnd = c.winEnd.Add(c.winLen)
	}
	return now.Before(deadline)
}

// endPhase closes the client's last window.
func (c *client) endPhase() {
	for len(c.marks) < windows {
		c.marks = append(c.marks, c.mark())
	}
	c.marks = append(c.marks, c.mark())
}

func readAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cacheDelta is the result-cache traffic between two snapshots.
type cacheDelta struct{ hits, misses, invalidations, evictions, hitCount, hitNanos int64 }

func cacheDiff(a, b engine.ResultCacheMetrics) cacheDelta {
	return cacheDelta{
		hits:          b.Hits - a.Hits,
		misses:        b.Misses - a.Misses,
		invalidations: b.Invalidations + b.EpochInvalidations - a.Invalidations - a.EpochInvalidations,
		evictions:     b.Evictions - a.Evictions,
		hitCount:      b.HitNanos.Count - a.HitNanos.Count,
		hitNanos:      b.HitNanos.Sum - a.HitNanos.Sum,
	}
}

func (d *cacheDelta) add(o cacheDelta) {
	d.hits += o.hits
	d.misses += o.misses
	d.invalidations += o.invalidations
	d.evictions += o.evictions
	d.hitCount += o.hitCount
	d.hitNanos += o.hitNanos
}

func (d *cacheDelta) sub(o cacheDelta) {
	d.hits -= o.hits
	d.misses -= o.misses
	d.invalidations -= o.invalidations
	d.evictions -= o.evictions
	d.hitCount -= o.hitCount
	d.hitNanos -= o.hitNanos
}

// probe snapshots every counter the per-layer metrics are deltas of.
type probe struct {
	at       time.Time
	eng      engine.MetricsSnapshot
	cache    engine.ResultCacheMetrics
	allocs   uint64
	gcCycles uint64
	gcCPU    float64
	totalCPU float64
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readProbe(eng *engine.Engine) probe {
	p := probe{at: time.Now(), eng: eng.Metrics()}
	if c, err := eng.ResultCacheStats(); err == nil {
		p.cache = c
	}
	s := append([]metrics.Sample(nil), rtSamples...)
	metrics.Read(s)
	p.allocs = s[0].Value.Uint64()
	p.gcCycles = s[1].Value.Uint64()
	p.gcCPU = s[2].Value.Float64()
	p.totalCPU = s[3].Value.Float64()
	return p
}

// phase is the outcome of one timed phase of all clients.
type phase struct {
	before, after probe
	clients       []*client // samples and window marks, per client
	winLen        time.Duration
	n             [numKinds]int64
	ops, failed   int64
	checkAllocs   uint64
	checkCache    cacheDelta
	opsPerSec     float64
	spans         spanStats
	tracers       []*tracer
}

// runPhase runs loop on every client concurrently for d and waits for
// all of them. Traced phases give each client a tracer. The engine's
// counters are probed around the phase.
func runPhase(eng *engine.Engine, clients []*client, d time.Duration, traced bool, loop func(c *client, deadline time.Time)) *phase {
	var tracers []*tracer
	runtime.GC()
	ph := &phase{before: readProbe(eng), clients: clients, winLen: d / windows}
	start := time.Now()
	for _, c := range clients {
		var tr *tracer
		if traced {
			tr = newTracer(c.id, start, spanKeep/len(clients))
			tracers = append(tracers, tr)
		}
		c.resetPhase(tr, start, d)
		c.soleClient, c.eng = len(clients) == 1, eng
	}
	ph.tracers = tracers
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			loop(c, deadline)
		}(c)
	}
	wg.Wait()
	ph.after = readProbe(eng)
	for _, c := range clients {
		c.endPhase()
		ph.ops += c.ops
		ph.failed += c.failed
		ph.checkAllocs += c.checkAllocs
		ph.checkCache.add(c.checkCache)
		for k := range c.n {
			ph.n[k] += c.n[k]
		}
		c.tr = nil
	}
	ph.opsPerSec = ph.blockRate(throughputBlocks)
	ph.spans = mergeSpans(tracers)
	return ph
}

// liveHeapMB is the live heap after a forced GC, in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// Blocks per phase: throughput and medians take the median of 10 blocks;
// a p99 needs 1000 samples per block, so it takes the median of 3.
const (
	throughputBlocks = 10
	p50Blocks        = 10
	p99Blocks        = 3
)

// block returns the window range [lo, hi) of block b of n.
func block(b, n int) (lo, hi int) { return b * windows / n, (b + 1) * windows / n }

// blockRate is the median over n blocks of the operations completed per
// second, all clients: each client's operations over the block's time
// minus that client's answer checks, summed over the clients (they run
// at once).
func (ph *phase) blockRate(n int) float64 {
	rates := make([]float64, n)
	for b := range rates {
		lo, hi := block(b, n)
		for _, c := range ph.clients {
			busy := ph.winLen*time.Duration(hi-lo) - time.Duration(c.marks[hi].checkNanos-c.marks[lo].checkNanos)
			rates[b] += ratio(float64(c.marks[hi].ops-c.marks[lo].ops), busy.Seconds())
		}
	}
	return median(rates)
}

// blockPercentile is the median over n blocks of the q-quantile of kind
// k's latencies in each block, in nanoseconds. It fails when a block has
// too few samples for the quantile.
func (ph *phase) blockPercentile(k int, q float64, n int) (float64, int, bool) {
	vals := make([]float64, n)
	total := 0
	for b := range vals {
		lo, hi := block(b, n)
		var samples []int64
		for _, c := range ph.clients {
			samples = append(samples, c.lat[k][c.marks[lo].lat[k]:c.marks[hi].lat[k]]...)
		}
		total += len(samples)
		v, ok := percentile(sortedCopy(samples), q)
		if !ok {
			return 0, len(samples), false
		}
		vals[b] = float64(v)
	}
	return median(vals), total, true
}

// spanKeep bounds the spans a traced phase keeps for writing out.
const spanKeep = 200_000

// latencyMetrics adds the p50 and p99 of each kind the workload issues,
// in microseconds. A percentile that some block has too few samples for
// (fewer than minBeyond above it) is left out and reported as missing.
func latencyMetrics(out map[string]float64, ph *phase, kinds map[int]string) []string {
	var missing []string
	for k, name := range kinds {
		for _, q := range []struct {
			suffix string
			q      float64
			blocks int
		}{{"_p50_us", 0.50, p50Blocks}, {"_p99_us", 0.99, p99Blocks}} {
			v, n, ok := ph.blockPercentile(k, q.q, q.blocks)
			if !ok {
				missing = append(missing, fmt.Sprintf("%s%s (a block has %d samples)", name, q.suffix, n))
				continue
			}
			out[name+q.suffix] = v / 1e3
		}
	}
	return missing
}
