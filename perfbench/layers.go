package main

import (
	"fmt"
	"time"

	"gem5art/internal/sim/cpu"
)

// Per-layer name parts for CPU models and memory systems.
var (
	cpuLayer = map[string]string{
		string(cpu.KVM): "kvm", string(cpu.Atomic): "atomic",
		string(cpu.Timing): "timing", string(cpu.O3): "o3",
	}
	memLayer = map[string]string{
		"classic": "classic", "ruby.MI_example": "ruby_mi", "ruby.MESI_Two_Level": "ruby_mesi",
	}
)

// tracedCollections are the store collections the database layer is
// broken down by; every workload reports all of them (zero where it
// does not touch one). "files" is the blob store.
var tracedCollections = []string{
	"artifacts", "runs", "simcache_results", "files",
	"broker_queue", "t.bench.launches", "t.bench.runs",
}

// simAgg sums a simulator layer's spans: host time and work count.
type simAgg struct {
	dur   time.Duration
	count uint64
}

func (a *simAgg) add(s *Span) {
	a.dur += s.Dur()
	a.count += s.Count
}

// nsPer is host nanoseconds per unit of work, or 0 for no work.
func (a *simAgg) nsPer() float64 {
	if a.count == 0 {
		return 0
	}
	return float64(a.dur.Nanoseconds()) / float64(a.count)
}

// ioAgg sums a database operation class.
type ioAgg struct {
	calls int
	busy  time.Duration
	ms    []float64
}

func (a *ioAgg) add(s *Span) {
	a.calls++
	a.busy += s.Dur()
	a.ms = append(a.ms, ms(s.Dur()))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// layerMetrics reduces a traced run's spans and counters to the
// per-layer metrics. Totals are per unit of work so runs of different
// lengths compare: simulator layers per whole input set (a Figure 8
// matrix, a use-case-1 sweep, a Figure 9 sweep), storage and launch
// layers per sweep pass, worker layers per service round. A layer the
// workload does not exercise reports 0.
func (st *runState) layerMetrics(spans []Span) map[string]metric {
	passKind := map[uint64]string{}
	for _, s := range spans {
		if s.Name == "bench.pass" {
			passKind[s.ID] = s.Attrs["kind"]
		}
	}
	sweepPasses := 0
	for _, k := range passKind {
		if k == st.sweepKind {
			sweepPasses++
		}
	}
	inSweep := func(s *Span) bool { return passKind[s.Parent] == st.sweepKind }

	var boot, parsec, gpuOps, handler simAgg
	byCPU, byMem := map[string]*simAgg{}, map[string]*simAgg{}
	var launchFS, handlerMS, submitMS, pollMS []float64
	waitByPass := map[uint64]time.Duration{}
	db := map[string]*ioAgg{} // "read", "write", "<coll>.read", ...
	launches := 0
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case "sim.boot":
			boot.add(s)
			for _, grp := range []struct {
				by  map[string]*simAgg
				key string
			}{{byCPU, cpuLayer[s.Attrs["cpu"]]}, {byMem, memLayer[s.Attrs["mem"]]}} {
				if grp.by[grp.key] == nil {
					grp.by[grp.key] = &simAgg{}
				}
				grp.by[grp.key].add(s)
			}
		case "workloads.parsec":
			parsec.add(s)
		case "sim.gpu":
			gpuOps.add(s)
		case "launch.LaunchFS":
			if inSweep(s) {
				launchFS = append(launchFS, ms(s.Dur()))
			}
		case "launch.Wait":
			if inSweep(s) {
				waitByPass[s.Parent] += s.Dur()
			}
		case "database.read", "database.write":
			if !inSweep(s) {
				continue
			}
			kind := s.Name[len("database."):]
			for _, key := range []string{kind, s.Attrs["coll"] + "." + kind} {
				if db[key] == nil {
					db[key] = &ioAgg{}
				}
				db[key].add(s)
			}
		case "tasks.handler":
			handler.add(s)
			handlerMS = append(handlerMS, ms(s.Dur()))
		case "gateway.submit":
			submitMS = append(submitMS, ms(s.Dur()))
		case "gateway.poll":
			pollMS = append(pollMS, ms(s.Dur()))
		case "client.launch":
			launches++
		}
	}

	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	per := func(v float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return v / float64(n)
	}

	matrices := st.units["use-case-2-boot"]
	put("sim.boot.host_s", per(boot.dur.Seconds(), matrices), "s")
	put("sim.boot.insts", per(float64(boot.count), matrices), "count")
	put("sim.boot.ns_per_inst", boot.nsPer(), "ns")
	for _, name := range cpuLayer {
		a := byCPU[name]
		if a == nil {
			a = &simAgg{}
		}
		put("sim.boot.ns_per_inst."+name, a.nsPer(), "ns")
	}
	for _, name := range memLayer {
		a := byMem[name]
		if a == nil {
			a = &simAgg{}
		}
		put("sim.boot.ns_per_inst."+name, a.nsPer(), "ns")
	}
	sweeps := st.units["use-case-1-parsec"]
	put("workloads.parsec.host_s", per(parsec.dur.Seconds(), sweeps), "s")
	put("workloads.parsec.insts", per(float64(parsec.count), sweeps), "count")
	put("workloads.parsec.ns_per_inst", parsec.nsPer(), "ns")
	sweeps = st.units["use-case-3-gpu"]
	put("sim.gpu.host_s", per(gpuOps.dur.Seconds(), sweeps), "s")
	put("sim.gpu.ops", per(float64(gpuOps.count), sweeps), "count")
	put("sim.gpu.ns_per_op", gpuOps.nsPer(), "ns")

	var waits []float64
	for _, d := range waitByPass {
		waits = append(waits, d.Seconds())
	}
	put("launch.launchfs_ms_p50", median(launchFS), "ms")
	put("launch.wait_s", median(waits), "s")
	put("launch.non_sim_share", median(st.nonSim), "ratio")
	fmt.Printf("launch.non_sim_share base (last traced pass): %s\n", st.nonSimBase)

	for _, kind := range []string{"read", "write"} {
		for _, prefix := range append([]string{""}, tracedCollections...) {
			key, name := kind, "database."
			if prefix != "" {
				key, name = prefix+"."+kind, name+prefix+"."
			}
			a := db[key]
			if a == nil {
				a = &ioAgg{}
			}
			put(name+kind+".calls", per(float64(a.calls), sweepPasses), "count")
			put(name+kind+".busy_s", per(a.busy.Seconds(), sweepPasses), "s")
			if kind == "write" {
				put(name+"write_ms_p50", median(a.ms), "ms")
			}
		}
	}

	if c := st.cache[st.sweepKind]; c != nil {
		put("simcache.lookups", per(float64(c.lookups), int(c.passes)), "count")
		put("simcache.stores", per(float64(c.stores), int(c.passes)), "count")
		put("simcache.hit_ratio", per(float64(c.hits), int(c.lookups)), "ratio")
		fmt.Printf("simcache.hit_ratio base: %d hits / %d lookups over %d %s passes\n",
			c.hits, c.lookups, c.passes, st.sweepKind)
	} else {
		put("simcache.lookups", 0, "count")
		put("simcache.stores", 0, "count")
		put("simcache.hit_ratio", 0, "ratio")
	}
	if c := st.cache[passCold]; c != nil && st.sweepKind != passCold {
		fmt.Printf("cold passes: %d hits / %d lookups, %d stores over %d passes\n",
			c.hits, c.lookups, c.stores, c.passes)
	}

	put("gateway.submit_ms_p50", median(submitMS), "ms")
	put("gateway.poll_ms_p50", median(pollMS), "ms")
	put("gateway.polls_per_launch", per(float64(len(pollMS)), launches), "count")
	put("gateway.rejected_429", float64(st.rejected), "count")

	rounds := st.units["round"]
	put("tasks.handler.calls", per(float64(len(handlerMS)), rounds), "count")
	put("tasks.handler.busy_s", per(handler.dur.Seconds(), rounds), "s")
	put("tasks.handler_ms_p50", median(handlerMS), "ms")
	put("tasks.executions_per_job", per(float64(st.execs), st.jobs), "ratio")
	fmt.Printf("tasks.executions_per_job base: %d executions / %d jobs\n", st.execs, st.jobs)

	put("runtime.gc_pause_s", median(st.gcPause), "s")
	put("runtime.alloc_mb", median(st.allocMB), "MB")
	overhead := 0.0
	if p := median(st.wallPlain); p > 0 {
		overhead = (median(st.wallTraced)/p - 1) * 100
	}
	put("trace.overhead_pct", overhead, "%")
	fmt.Printf("trace.overhead_pct base: traced sweep_s %.4f over %d passes vs untraced %.4f over %d\n",
		median(st.wallTraced), len(st.wallTraced), median(st.wallPlain), len(st.wallPlain))
	return m
}
