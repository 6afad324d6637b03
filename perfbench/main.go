// Command perfbench is gem5art's benchmark. Given a workload and a
// seed it generates that workload's inputs, drives the system through
// its public packages for a fixed time, checks every output, and prints
// the end-to-end metrics as the last line of standard output:
//
//	bash perfbench/run.sh --workload cpu-figures --seed 1 --seconds 25 --trace 0
//
// With --trace 1 it alternates untraced and traced cycles instead,
// prints the per-layer metrics, and writes every span as JSONL under
// .bench_build/perfbench/. See README.md for what each workload is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gem5art/internal/core/run"
	"gem5art/internal/simcache"
)

// workload is one benchmark traffic mix. A cycle performs one timed
// set-up and the passes that follow it, recording into the run state;
// a non-nil tracer makes it a traced cycle.
type workload interface {
	cycle(st *runState, t *Tracer) error
	// setupOnly performs one timed set-up and tears it down again.
	setupOnly(st *runState) error
}

// extraSetups is how many set-ups a run times and tears down again
// before each cycle, so setup_s is a median over many samples spread
// across the run even when few cycles fit.
const extraSetups = 8

// workloadDef is a workload with the passes its metrics come from:
// sweep_s and launches_per_s measure passes of sweepKind — warm
// re-launches where a cache or a running service is reused, otherwise
// every (cold) pass. The latency metrics measure those passes too, with
// the tail taken per pass; with latencyAllPasses they measure every
// pass, with the tail taken per cycle.
type workloadDef struct {
	w                workload
	sweepKind        string
	latencyAllPasses bool
}

var workloadDefs = map[string]workloadDef{
	"cpu-figures":    {w: cpuFigures, sweepKind: passCold},
	"gpu-figure":     {w: gpuFigure, sweepKind: passCold},
	"cache-rerun":    {w: cacheRerun, sweepKind: passWarm},
	"service-launch": {w: serviceLaunch, sweepKind: passWarm, latencyAllPasses: true},
}

// Pass kinds: the first pass after a set-up, and the passes reusing it.
const (
	passCold = "cold"
	passWarm = "warm"
)

// workDir is where runs keep journaled stores and span logs, relative
// to the checkout root the benchmark runs from.
var workDir = filepath.Join(".bench_build", "perfbench")

func main() { os.Exit(mainErr()) }

func mainErr() int {
	name := flag.String("workload", "", "workload: cpu-figures, gpu-figure, cache-rerun or service-launch")
	seed := flag.Int64("seed", 1, "seed for launch orders and launch cell sets")
	seconds := flag.Int("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	def, ok := workloadDefs[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n",
			*name, *seconds, *trace)
		return 2
	}
	// The benchmark runs on one processor with one pool worker and one
	// worker slot. On a host whose few cores are shared, a run that
	// needs every core measures whether the neighbours leave them free:
	// one busy neighbour on two cores nearly doubles a two-worker sweep.
	runtime.GOMAXPROCS(1)
	st := &runState{
		workload:  *name,
		seed:      *seed,
		rng:       rand.New(rand.NewSource(*seed)),
		workers:   1,
		trace:     *trace == 1,
		sweepKind: def.sweepKind,
		latAll:    def.latencyAllPasses,
		deadline:  time.Now().Add(time.Duration(*seconds) * time.Second),
	}
	var tracer *Tracer
	if st.trace {
		tracer = newTracer()
	}
	// Cycles always run whole, so every run samples the same mix of
	// passes. A traced run alternates untraced and traced cycles, so
	// tracing overhead is measured within one process; it needs one of
	// each.
	minCycles := 1
	if st.trace {
		minCycles = 2
	}
	defer removeScratch()
	for cycle := 0; cycle < minCycles || time.Now().Before(st.deadline); cycle++ {
		var t *Tracer
		if cycle%2 == 1 {
			t = tracer
		}
		if err := runCycle(def.w, st, t); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
			return 1
		}
		st.endCycle()
	}

	res := result{Correct: len(st.errs) == 0, Attempted: st.attempted, Failed: st.failed}
	fmt.Printf("workload %s seed %d: %d cycles, %d workers, %d ops attempted, %d failed (failed_frac %.6f)\n",
		*name, *seed, st.cycles, st.workers, st.attempted, st.failed, failedFrac(st.failed, st.attempted))
	for _, e := range st.errs {
		fmt.Println("CHECK FAILED:", e)
	}
	if st.trace {
		spans := tracer.Spans()
		path := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
		if err := writeJSONL(path, spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
			return 1
		}
		fmt.Printf("%d spans written to %s (%d dropped)\n", len(spans), path, tracer.dropped)
		fmt.Print(selfTable(spans))
		res.Metrics = st.layerMetrics(spans)
	} else {
		res.Metrics = st.endToEnd()
	}
	printMetrics(res.Metrics)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// settle starts a pass from a collected heap and with no file data
// left to write back, so no pass pays for the garbage or the dirty
// pages of the one before it.
func settle() {
	runtime.GC()
	syscall.Sync()
}

// runCycle times the extra set-ups, then runs one cycle, and records
// the cycle's peak RSS. It first returns the previous cycle's garbage
// to the system, so no cycle pays for another's or counts its memory.
func runCycle(w workload, st *runState, t *Tracer) error {
	debug.FreeOSMemory()
	resetPeakRSS()
	for i := 0; i < extraSetups; i++ {
		if err := w.setupOnly(st); err != nil {
			return err
		}
	}
	if err := w.cycle(st, t); err != nil {
		return err
	}
	st.rss = append(st.rss, peakRSSMB())
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-40s %16.6f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// runState accumulates one benchmark run's samples and check results.
type runState struct {
	workload  string
	seed      int64
	rng       *rand.Rand
	workers   int
	trace     bool
	sweepKind string
	latAll    bool
	deadline  time.Time

	cycles    int
	passes    int
	scratchN  int
	attempted int
	failed    int
	errs      []string

	setup []float64 // s, one per set-up
	sweep []float64 // s, passes of the sweep kind
	cold  []float64 // s, cold passes
	rates []float64 // ops/s, per sweep pass
	lat   []float64 // ms, per op of latency passes
	p50s  []float64 // ms, per latency pass: the median of its ops
	rss   []float64 // MB, per cycle: its peak RSS
	// tailGroups counts the groups lat was taken in: sweep passes, or
	// cycles when latAll. A group is what launch_tail_ms's percentile
	// is fixed by.
	tailGroups int
	cycleOps   int // ops of the current cycle when latAll

	// Traced runs only.
	wallPlain, wallTraced []float64 // s, sweep passes by tracing mode
	nonSim                []float64 // per traced sweep pass
	nonSimBase            string
	gcPause, allocMB      []float64 // per untraced sweep pass
	units                 map[string]int
	cache                 map[string]*cacheAgg
	rejected              int // gateway 429s in traced cycles
	execs, jobs           int // broker executions over gateway jobs
}

// cacheAgg sums simcache counter deltas over traced passes of one kind.
type cacheAgg struct {
	passes, hits, lookups, stores int64
}

func (st *runState) fail(format string, args ...any) {
	st.errs = append(st.errs, fmt.Sprintf(format, args...))
}

// scratchRoot holds this run's journaled stores. They are all removed
// when the run ends, not as each closes: deleting them mid-run slowed
// the later fsync-bound passes by up to a third.
func scratchRoot() string { return filepath.Join(workDir, fmt.Sprintf("stores-%d", os.Getpid())) }

// scratchDir returns a fresh directory for a journaled store.
func (st *runState) scratchDir() string {
	st.scratchN++
	return filepath.Join(scratchRoot(), fmt.Sprint(st.scratchN))
}

// removeScratch removes the run's stores and waits until the
// filesystem has committed that, so the next run does not pay for it.
func removeScratch() {
	_ = os.RemoveAll(scratchRoot())
	syscall.Sync()
}

func (st *runState) addSetup(d time.Duration) { st.setup = append(st.setup, d.Seconds()) }

// unit counts one traced execution of a layer's whole input set (a Fig
// 8 matrix, a use-case-1 sweep, ...), the base per-layer totals are
// divided by.
func (st *runState) unit(layer string) {
	if st.units == nil {
		st.units = map[string]int{}
	}
	st.units[layer]++
}

// memBefore snapshots the Go runtime before an untraced pass of a
// traced run; other passes skip the stop-the-world read.
func (st *runState) memBefore(t *Tracer) *runtime.MemStats {
	if !st.trace || t != nil {
		return nil
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return &m
}

func (st *runState) memAfter(kind string, before *runtime.MemStats) {
	if before == nil || kind != st.sweepKind {
		return
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	st.gcPause = append(st.gcPause, time.Duration(m.PauseTotalNs-before.PauseTotalNs).Seconds())
	st.allocMB = append(st.allocMB, float64(m.TotalAlloc-before.TotalAlloc)/(1<<20))
}

func (st *runState) addCacheStats(kind string, t *Tracer, before, after simcache.Stats) {
	if t == nil {
		return
	}
	if st.cache == nil {
		st.cache = map[string]*cacheAgg{}
	}
	a := st.cache[kind]
	if a == nil {
		a = &cacheAgg{}
		st.cache[kind] = a
	}
	hits := (after.HitsMemory + after.HitsPersistent) - (before.HitsMemory + before.HitsPersistent)
	a.passes++
	a.hits += hits
	a.lookups += hits + after.Misses - before.Misses
	a.stores += after.Stores - before.Stores
}

// checkRuns verifies a pass's runs: every run done, warm runs replayed
// from the cache, each experiment's result digest and figure numbers.
// It returns each run's canonical result line by name.
func (st *runState) checkRuns(exps []sweepExp, runs [][]*run.Run, warm bool) map[string]string {
	lines := map[string]string{}
	for i, x := range exps {
		expLines := map[string]string{}
		results := make([]*run.Results, len(x.cells))
		for j, c := range x.cells {
			r := runs[i][j]
			st.attempted++
			if r.StatusNow() != run.Done || r.Results == nil {
				st.failed++
				continue
			}
			results[j] = r.Results
			if warm && !r.Results.FromCache {
				st.fail("%s: warm re-launch simulated %s instead of replaying it", st.workload, c.spec.Name)
			}
			line := resultLine(c.spec.Name, r.Results)
			expLines[c.spec.Name] = line
			lines[c.spec.Name] = line
		}
		if d := digestLines(expLines); d != pinnedDigests[x.name] {
			st.fail("%s: result digest %s, pinned %s", x.name, d, pinnedDigests[x.name])
		}
		st.errs = append(st.errs, checkFigure(x.name, x.cells, results)...)
	}
	return lines
}

// addPass records one pass: its wall time, its runs' latencies, and in
// a traced run the share of worker time spent outside the simulator.
func (st *runState) addPass(kind string, wall time.Duration, runs [][]*run.Run, traced bool, simHost time.Duration) {
	var lat []float64
	for _, rs := range runs {
		for _, r := range rs {
			if r.StatusNow() == run.Done {
				lat = append(lat, float64(r.WallEnd.Sub(r.WallStart))/float64(time.Millisecond))
			}
		}
	}
	st.addOps(kind, wall, lat, len(lat), traced, simHost)
}

// addOps records one pass of ops (runs or launches): its wall time,
// each op's latency, how many completed, and the simulator host time
// spent in it.
func (st *runState) addOps(kind string, wall time.Duration, lat []float64, done int, traced bool, simHost time.Duration) {
	st.passes++
	if kind == passCold {
		st.cold = append(st.cold, wall.Seconds())
	}
	switch {
	case st.latAll:
		st.lat = append(st.lat, lat...)
		st.p50s = append(st.p50s, median(lat))
		st.cycleOps += len(lat)
	case kind == st.sweepKind:
		st.lat = append(st.lat, lat...)
		st.p50s = append(st.p50s, median(lat))
		st.tailGroups++
	}
	if kind != st.sweepKind {
		return
	}
	st.sweep = append(st.sweep, wall.Seconds())
	st.rates = append(st.rates, float64(done)/wall.Seconds())
	if !st.trace {
		return
	}
	if !traced {
		st.wallPlain = append(st.wallPlain, wall.Seconds())
		return
	}
	st.wallTraced = append(st.wallTraced, wall.Seconds())
	capacity := wall.Seconds() * float64(st.workers)
	st.nonSim = append(st.nonSim, 1-simHost.Seconds()/capacity)
	st.nonSimBase = fmt.Sprintf("1 - %.4f s simulating / (%.4f s x %d workers)",
		simHost.Seconds(), wall.Seconds(), st.workers)
}

func (st *runState) endCycle() {
	st.cycles++
	if st.cycleOps > 0 {
		st.tailGroups++
	}
	st.cycleOps = 0
}

// resetPeakRSS starts a new peak-RSS window. Where Linux's clear_refs
// is unavailable the window stays the whole run.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB is the process's maximum resident set size since the last
// resetPeakRSS (Linux's VmHWM), or over the whole run where that cannot
// be read.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// endToEnd reduces an untraced run to its end-to-end metrics.
func (st *runState) endToEnd() map[string]metric {
	tl := tailOf(st.lat, st.tailGroups)
	fmt.Printf("sweep_s over %d passes (spread %.3f): %s\n", len(st.sweep), spread(st.sweep), fmtSamples(st.sweep))
	fmt.Printf("cold_sweep_s over %d passes (spread %.3f): %s\n", len(st.cold), spread(st.cold), fmtSamples(st.cold))
	q1, q3 := quartiles(st.setup)
	fmt.Printf("setup_s over %d set-ups (spread %.3f): quartiles %.6f %.6f\n", len(st.setup), spread(st.setup), q1, q3)
	fmt.Printf("peak_rss_mb over %d cycles (spread %.3f): %s\n", len(st.rss), spread(st.rss), fmtSamples(st.rss))
	fmt.Printf("launch_p50_ms is the median of %d passes' medians; launch_tail_ms is p%.2f over their %d ops, %d beyond it (%d in each of %d passes or cycles)\n",
		len(st.p50s), tl.Percentile, len(st.lat), tl.Beyond, minTailBeyond, st.tailGroups)
	return map[string]metric{
		"setup_s":        {median(st.setup), "s"},
		"sweep_s":        {median(st.sweep), "s"},
		"cold_sweep_s":   {median(st.cold), "s"},
		"launches_per_s": {median(st.rates), "1/s"},
		"launch_p50_ms":  {median(st.p50s), "ms"},
		"launch_tail_ms": {tl.Value, "ms"},
		"peak_rss_mb":    {median(st.rss), "MB"},
	}
}

func fmtSamples(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}
