package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"time"
)

// Span names. Each names the layer (the part before the first dot) whose
// public function the benchmark called: "bench" spans are the
// benchmark's own work (statement generation, answer checks), the others
// wrap exactly one call into that module.
const (
	spanOp         = iota // root: one client operation
	spanCheck             // the answer check after an operation
	spanParse             // sql.Parse
	spanSelect            // sql.Session.ExecStmt of a SELECT
	spanInsert            // ... of an INSERT
	spanAdvance           // ... of an ADVANCE TO
	spanRefresh           // ... of a REFRESH VIEW
	spanCheckpoint        // engine.Engine.Checkpoint
	spanWireRead          // wire.Client.Read
	spanWireMat           // wire.Client.Materialize
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"bench.op", "bench.check", "sql.parse", "sql.select", "sql.insert",
	"sql.advance", "sql.refresh", "engine.checkpoint", "wire.read",
	"wire.materialize",
}

// Span tags qualify a span with the outcome of its call.
const (
	tagNone  = 0
	tagHit   = 1 // a SELECT answered from the result cache
	tagRemat = 2 // a wire Read that re-materialised over the network
	numTags  = 3
)

var tagNames = [numTags]string{"", "cache_hit", "remat"}

// span is one timed call. Times are nanoseconds since the tracer's epoch;
// parent indexes the op's span list (-1 for the root).
type span struct {
	name, tag  uint8
	parent     int32
	op         uint64
	start, end int64
}

// spanAgg accumulates the spans of one (name, tag): how many, their total
// duration and their self time (duration minus the child spans inside).
type spanAgg struct{ count, total, self int64 }

// tracer records the spans of one client. It is used by that client's
// goroutine only. Aggregates cover every span; the spans themselves are
// kept for the first keepCap only, so a long traced run holds bounded
// memory (the count of spans not kept is written out with them).
type tracer struct {
	client  int
	epoch   time.Time
	seq     uint64 // op ids: every root span, checks included
	cur     []span // spans of the operation in progress
	kept    []span
	keepCap int
	dropped int64
	agg     [numSpanNames][numTags]spanAgg
}

func newTracer(client int, epoch time.Time, keepCap int) *tracer {
	return &tracer{client: client, epoch: epoch, keepCap: keepCap, cur: make([]span, 0, 8),
		kept: make([]span, 0, keepCap)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// beginOp opens the root span of a new operation.
func (t *tracer) beginOp() {
	t.seq++
	t.cur = append(t.cur[:0], span{name: spanOp, parent: -1, op: t.seq, start: t.now()})
}

// begin opens a child of the operation's root and returns its handle.
func (t *tracer) begin(name uint8) int {
	t.cur = append(t.cur, span{name: name, parent: 0, op: t.seq, start: t.now()})
	return len(t.cur) - 1
}

// end closes a child span with a tag describing the call's outcome.
func (t *tracer) end(i int, tag uint8) {
	t.cur[i].end = t.now()
	t.cur[i].tag = tag
}

// endOp closes the root, folds the operation's spans into the aggregates
// and keeps them while there is room.
func (t *tracer) endOp() {
	t.cur[0].end = t.now()
	t.fold()
}

func (t *tracer) fold() {
	for i := range t.cur {
		s := &t.cur[i]
		d := s.end - s.start
		a := &t.agg[s.name][s.tag]
		a.count++
		a.total += d
		a.self += d
		if s.parent >= 0 {
			p := t.cur[s.parent]
			t.agg[p.name][p.tag].self -= d
		}
	}
	if len(t.kept)+len(t.cur) <= t.keepCap {
		t.kept = append(t.kept, t.cur...)
	} else {
		t.dropped += int64(len(t.cur))
	}
}

// spanStats merges the aggregates of several tracers.
type spanStats [numSpanNames][numTags]spanAgg

func mergeSpans(ts []*tracer) (s spanStats) {
	for _, t := range ts {
		for n := range t.agg {
			for g := range t.agg[n] {
				s[n][g].count += t.agg[n][g].count
				s[n][g].total += t.agg[n][g].total
				s[n][g].self += t.agg[n][g].self
			}
		}
	}
	return s
}

// meanUs is the mean duration in microseconds of the spans of a name,
// restricted to the given tags (all tags when none are given).
func (s *spanStats) meanUs(name int, tags ...uint8) float64 {
	if len(tags) == 0 {
		tags = []uint8{tagNone, tagHit, tagRemat}
	}
	var n, total int64
	for _, g := range tags {
		n += s[name][g].count
		total += s[name][g].total
	}
	return ratio(float64(total), float64(n)) / 1e3
}

// layerSelfUs returns each layer's self time in microseconds per
// completed operation.
func (s *spanStats) layerSelfUs(ops int64) map[string]float64 {
	out := map[string]float64{}
	for n := range s {
		layer, _, _ := strings.Cut(spanNames[n], ".")
		var self int64
		for g := range s[n] {
			self += s[n][g].self
		}
		out[layer] += ratio(float64(self), float64(ops)) / 1e3
	}
	return out
}

// writeSpans writes the kept spans of every tracer as JSON lines: one
// header line with the environment and the number of spans not kept,
// then one object per span. Span ids are unique across clients; an op id
// is shared by the spans of one operation.
func writeSpans(path string, env *envHeader, ts []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var dropped int64
	for _, t := range ts {
		dropped += t.dropped
	}
	fmt.Fprintf(w, "{\"env\":%s,\"spans_not_kept\":%d}\n", env.json(), dropped)
	for _, t := range ts {
		base := uint64(t.client) << 40
		rootIdx := 0
		for i, s := range t.kept {
			if s.parent < 0 {
				rootIdx = i
			}
			parent := int64(-1)
			if s.parent >= 0 {
				parent = int64(base | uint64(rootIdx+int(s.parent)))
			}
			fmt.Fprintf(w, "{\"id\":%d,\"name\":%q,\"op\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d,\"tag\":%q}\n",
				base|uint64(i), spanNames[s.name], base|s.op, parent, s.start, s.end, tagNames[s.tag])
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
