package expdb_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// allocGates are the hot paths whose allocations per operation CI pins.
// Each row names a benchmark, the package it lives in and its budget.
// Benchmarks run at a fixed 10000 iterations: one-shot runs over-report
// (map growth amortises away), and 10000x is deterministic at these
// budgets while still taking milliseconds.
var allocGates = []struct {
	pkg, bench string
	budget     int
	why        string
}{
	{"./internal/engine", "BenchmarkInsertMetricsOverhead", 7,
		"the memory-only insert hot path, metrics included"},
	{"./internal/engine", "BenchmarkViewReadServe", 6,
		"the zero-copy view serve path hands out a shared snapshot: a constant handful of allocations however large the materialisation (measured 4)"},
	{"./internal/engine", "BenchmarkDurableInsert", 7,
		"the logged insert reuses the group-commit buffer, so the WAL adds no steady-state allocation over the memory-only insert (measured 4)"},
	{"./internal/engine", "BenchmarkEmptyAdvance", 0,
		"an Advance with nothing due allocates nothing"},
	{"./internal/engine", "BenchmarkCacheHit", 4,
		"the result-cache serve path is one map probe, an epoch check, an LRU touch and a shared-snapshot header (measured 1)"},
	{"./internal/engine", "BenchmarkIndexedPointLookup", 6,
		"the uncached indexed point lookup: result relation header, row map, bucket, set key and stream closure (measured 5); the lock plan and the probe itself allocate nothing"},
	{"./internal/monitor", "BenchmarkSamplerTick", 0,
		"the monitoring sampler runs forever: history rings are preallocated and the watchdog uses sentinel errors, so a tick allocates nothing"},
	{"./internal/sql", "BenchmarkSQLPointLookup/repeated-text", 10,
		"a repeated SELECT text is served from the statement cache and the result cache: no parse, no planning (measured 2)"},
}

var allocsPerOp = regexp.MustCompile(`(\d+) allocs/op`)

// TestAllocGates runs every allocGates benchmark and fails any over its
// budget. It shells out to go test -bench, so it runs only when
// EXPDB_ALLOC_GATES=1 (as CI sets it):
//
//	EXPDB_ALLOC_GATES=1 go test -run '^TestAllocGates$' -count=1 -v .
func TestAllocGates(t *testing.T) {
	if os.Getenv("EXPDB_ALLOC_GATES") != "1" {
		t.Skip("set EXPDB_ALLOC_GATES=1 to run the allocation budgets")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		gobin = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	for _, g := range allocGates {
		t.Run(strings.TrimPrefix(g.bench, "Benchmark"), func(t *testing.T) {
			// Anchor every level of a sub-benchmark name.
			parts := strings.Split(g.bench, "/")
			for i, p := range parts {
				parts[i] = "^" + regexp.QuoteMeta(p) + "$"
			}
			cmd := exec.Command(gobin, "test", g.pkg, "-run", "^$",
				"-bench", strings.Join(parts, "/"), "-benchtime=10000x", "-benchmem")
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("%s: %v\n%s", g.bench, err, out)
			}
			t.Logf("%s", out)
			var found bool
			for _, line := range strings.Split(string(out), "\n") {
				if !strings.HasPrefix(line, g.bench) {
					continue
				}
				m := allocsPerOp.FindStringSubmatch(line)
				if m == nil {
					continue
				}
				found = true
				if n, _ := strconv.Atoi(m[1]); n > g.budget {
					t.Errorf("%s regressed to %d allocs/op (budget %d: %s)", g.bench, n, g.budget, g.why)
				}
			}
			if !found {
				t.Fatalf("could not parse allocs/op for %s from:\n%s", g.bench, out)
			}
		})
	}
}
