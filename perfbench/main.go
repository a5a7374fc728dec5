// Command perfbench is expdb's benchmark. It drives the engine through
// its public surfaces — SQL text, durable acknowledgement, ADVANCE, view
// reads and the wire client — with closed-loop clients on one of three
// workloads generated from a seed, checks every answer, and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (traced
// run) as the last line of its output. NOTES.md explains the workloads
// and how the metrics relate.
//
// Usage, from the root of the repository:
//
//	bash perfbench/run.sh --workload read-mostly --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"expdb/internal/engine"
)

// instance is one set-up workload, ready to run.
type instance struct {
	eng     *engine.Engine
	clients []*client
	loop    func(c *client, deadline time.Time)
	rows    map[string]int // rows per table after set-up
	// phaseStart, if set, runs before each phase, and layer adds the
	// workload's own per-layer metrics over a phase (the wire client's
	// counters, which the engine probe does not carry).
	phaseStart func()
	layer      func(ph *phase, out map[string]float64)
	// finish ends the run: it checks what can only be checked at the end
	// (durable-ingest reopens the database) and adds end-to-end metrics
	// such as recovery_s. It releases everything the instance holds.
	finish func(out, layers map[string]float64) error
	// release frees a set-up that is not run (all but the last set-up).
	release func() error
}

type workload struct {
	name        string
	flushPolicy string
	setup       func(cfg *config) (*instance, error)
	// kinds maps the operation kinds the workload issues to the prefix
	// of their latency metrics.
	kinds map[int]string
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	bad      *failures
}

var workloads = map[string]*workload{
	"read-mostly": {
		name: "read-mostly", setup: setupReadMostly, flushPolicy: "none (memory only)",
		kinds: map[int]string{kRead: "read", kWrite: "write", kAdvance: "advance"},
	},
	"durable-ingest": {
		name: "durable-ingest", setup: setupDurableIngest, flushPolicy: diFlushPolicy,
		kinds: map[int]string{kRead: "read", kWrite: "write", kAdvance: "advance"},
	},
	"expiring-views": {
		name: "expiring-views", setup: setupExpiringViews, flushPolicy: "none (memory only)",
		kinds: map[int]string{kRead: "read", kWrite: "write", kAdvance: "advance", kRemote: "remote_read"},
	},
}

// Set-up runs at least minSetups times and until it has taken
// setupBudget in total (at most maxSetups times); setup_s is the median.
// Repeating a set-up of a few milliseconds many times steadies its
// median.
const (
	minSetups   = 5
	maxSetups   = 50
	setupBudget = time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := &config{bad: &failures{}}
	fl.StringVar(&cfg.workload, "workload", "", "workload: read-mostly, durable-ingest or expiring-views")
	fl.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	fl.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds")
	traceFlag := fl.Int("trace", 0, "1: traced run printing per-layer metrics")
	fl.StringVar(&cfg.outDir, "out-dir", ".bench_build/perfbench", "directory for the span files of traced runs")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *traceFlag == 1
	w, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad -seconds\n", cfg.workload)
		return 2
	}
	sp, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := runWorkload(w, cfg, sp, stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func runWorkload(w *workload, cfg *config, sp *spec, stdout io.Writer) error {
	var times []float64
	var inst *instance
	var spent time.Duration
	for inst == nil {
		t0 := time.Now()
		in, err := w.setup(cfg)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		spent += d
		times = append(times, d.Seconds())
		if len(times) >= maxSetups || (len(times) >= minSetups && spent >= setupBudget) {
			inst = in
		} else if err := in.release(); err != nil {
			return fmt.Errorf("releasing set-up: %w", err)
		}
	}
	env := newEnv(w, cfg, inst)
	fmt.Fprintf(stdout, "env %s\n", env.json())
	fmt.Fprintf(stdout, "set-up: %d runs, %.4f s to %.4f s\n", len(times), slices.Min(times), slices.Max(times))

	out := map[string]float64{"setup_s": median(times)}
	layers := map[string]float64{}
	d := time.Duration(cfg.seconds * float64(time.Second))
	// Warm up before timing: caches fill and the garbage of the earlier
	// set-ups is collected.
	warm := runInstance(inst, min(time.Second, d/10), false)
	var ph *phase
	if cfg.trace {
		// Half the time untraced, half traced: the traced phase gives the
		// per-layer numbers, the ratio of the two rates the overhead.
		plain := runInstance(inst, d/2, false)
		ph = runInstance(inst, d/2, true)
		layers["trace.overhead_frac"] = 1 - ratio(ph.opsPerSec, plain.opsPerSec)
		perLayer(ph, layers)
		if inst.layer != nil {
			inst.layer(ph, layers)
		}
		ph.ops += plain.ops
		ph.failed += plain.failed
	} else {
		ph = runInstance(inst, d, false)
		out["ops_per_s"] = ph.opsPerSec
		for _, m := range latencyMetrics(out, ph, w.kinds) {
			fmt.Fprintf(stdout, "omitted: %s\n", m)
		}
		out["allocs_per_op"] = ratio(float64(ph.after.allocs-ph.before.allocs-ph.checkAllocs), float64(ph.ops))
		// The latency samples are the benchmark's, not the program's.
		for _, c := range inst.clients {
			c.lat = [numKinds][]int64{}
		}
		out["heap_mb"] = liveHeapMB()
	}
	out["failed_op_ratio"] = ratio(float64(ph.failed), float64(ph.ops))
	// Every operation counts towards attempted and failed, warm-up too.
	ph.ops += warm.ops
	ph.failed += warm.failed
	if err := inst.finish(out, layers); err != nil {
		return err
	}
	if cfg.trace {
		path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, cfg.seed))
		if err := writeSpans(path, env, ph.tracers); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}

	correct := cfg.bad.n.Load() == 0
	for _, m := range cfg.bad.msgs {
		fmt.Fprintln(os.Stderr, "wrong answer:", m)
	}
	result := map[string]any{"correct": correct, "attempted": ph.ops, "failed": ph.failed}
	metrics := map[string]any{}
	want, vals := sp.EndToEnd, out
	if cfg.trace {
		for _, m := range perLayerNames {
			if _, ok := layers[m.name]; !ok {
				layers[m.name] = 0 // a layer this workload does not exercise
			}
		}
		printTable(stdout, "per-layer metrics (traced phase)", layers, perLayerUnit)
		want, vals = sp.PerLayer, layers
	} else {
		printTable(stdout, "end-to-end metrics (untraced)", out, e2eUnits)
	}
	for _, m := range want {
		v, ok := vals[m.Name]
		if !ok {
			return fmt.Errorf("no value for %s (too few samples?)", m.Name)
		}
		metrics[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	result["metrics"] = metrics
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// runInstance runs one timed phase of the instance's clients.
func runInstance(inst *instance, d time.Duration, traced bool) *phase {
	if inst.phaseStart != nil {
		inst.phaseStart()
	}
	return runPhase(inst.eng, inst.clients, d, traced, inst.loop)
}

// e2eUnits gives the unit of every end-to-end metric.
var e2eUnits = map[string]string{
	"setup_s": "s", "ops_per_s": "1/s", "recovery_s": "s", "failed_op_ratio": "ratio",
	"read_p50_us": "us", "read_p99_us": "us", "write_p50_us": "us", "write_p99_us": "us",
	"advance_p50_us": "us", "advance_p99_us": "us", "remote_read_p50_us": "us", "remote_read_p99_us": "us",
	"allocs_per_op": "count", "heap_mb": "MiB",
}

// specPath is the benchmark's definition, read from the root of the
// checkout the benchmark runs in.
const specPath = "BENCHMARK.json"

// spec is the part of BENCHMARK.json the benchmark reads: which metrics
// the result line carries. Every workload must produce each of them.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct{ Name, Unit string }

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, l := range []struct {
		metrics []specMetric
		units   map[string]string
	}{{sp.EndToEnd, e2eUnits}, {sp.PerLayer, perLayerUnit}} {
		for _, m := range l.metrics {
			if u, ok := l.units[m.Name]; !ok || u != m.Unit {
				return nil, fmt.Errorf("%s: unknown metric %s %s", path, m.Name, m.Unit)
			}
		}
	}
	return &sp, nil
}

func printTable(w io.Writer, title string, vals map[string]float64, units map[string]string) {
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s:\n", title)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", n, vals[n], units[n])
	}
}

// envHeader describes where and on what a result was measured.
type envHeader struct {
	GoVersion     string         `json:"go_version"`
	GOMAXPROCS    int            `json:"gomaxprocs"`
	NumCPU        int            `json:"nproc"`
	CPUModel      string         `json:"cpu_model"`
	GitCommit     string         `json:"git_commit"`
	SourceSHA256  string         `json:"source_sha256"`
	Workload      string         `json:"workload"`
	Seed          int64          `json:"seed"`
	Seconds       float64        `json:"seconds"`
	Traced        bool           `json:"traced"`
	Clients       int            `json:"clients"`
	FlushPolicy   string         `json:"flush_policy"`
	Rows          map[string]int `json:"rows"`
	CacheCapacity int            `json:"result_cache_capacity"`
}

func newEnv(w *workload, cfg *config, inst *instance) *envHeader {
	capacity := 0
	if c, err := inst.eng.ResultCacheStats(); err == nil {
		capacity = c.Capacity
	}
	return &envHeader{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), GitCommit: gitCommit(), SourceSHA256: sourceDigest(),
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.trace,
		Clients: len(inst.clients), FlushPolicy: w.flushPolicy, Rows: inst.rows, CacheCapacity: capacity,
	}
}

func (e *envHeader) json() string {
	b, _ := json.Marshal(e) // a struct of plain fields always marshals
	return string(b)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from the .git directory of the working directory,
// if there is one; a checkout exported without it reports "none" and is
// identified by its source digest.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	if packed, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if id, name, ok := strings.Cut(line, " "); ok && name == ref {
				return id
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under the working
// directory, skipping hidden and build directories, so a result names the
// code it measured even without git.
func sourceDigest() string {
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			if b, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s %d\n", path, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
