package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"gem5art/internal/core/run"
	"gem5art/internal/experiments"
	"gem5art/internal/sim/cpu"
	"gem5art/internal/sim/gpu"
	"gem5art/internal/sim/kernel"
	"gem5art/internal/workloads"
)

// pinnedDigests are SHA-256 digests over every run's recorded results
// (outcome, simulated seconds, instructions, console, stats), one per
// experiment, pinned from a reference run of the current simulator. A
// change that alters any simulated statistic changes its digest; such a
// change must re-pin it and say why.
var pinnedDigests = map[string]string{
	"use-case-1-parsec": "0cc5e9fe89fe145bb1bcba121b8fa1098662ecc8e6b4d7b4e608973e53c5d6b9",
	"use-case-2-boot":   "98d29ce76a7c1f3fe2a5601b35d54557db104dc6fba28f59ecf946c22a186b8b",
	"use-case-3-gpu":    "f353d63bee314e826bdfe6be9acf612c2356016ca21f36f7c6daa44bdacd6ebe",
}

// resultLine renders one run's results canonically: floats in shortest
// round-trip form, stats in key order.
func resultLine(name string, res *run.Results) string {
	if res == nil {
		return name + "|no results"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s|%s|%s|%d|%q", name, res.Outcome,
		strconv.FormatFloat(res.SimSeconds, 'g', -1, 64), res.Insts, res.Console)
	keys := make([]string, 0, len(res.Stats))
	for k := range res.Stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		sb.WriteString("|" + k + "=" + strconv.FormatFloat(res.Stats[k], 'g', -1, 64))
	}
	return sb.String()
}

// digestLines hashes result lines in name order, so launch order does
// not matter.
func digestLines(lines map[string]string) string {
	names := make([]string, 0, len(lines))
	for n := range lines {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		h.Write([]byte(lines[n]))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// param returns a run-script parameter of a spec.
func param(spec run.FSSpec, key string) string {
	for _, p := range spec.Params {
		if k, v, ok := strings.Cut(p, "="); ok && k == key {
			return v
		}
	}
	return ""
}

// want compares a figure number with the value the paper reproduction
// pins, at the precision it is quoted with.
func want(errs *[]string, what string, got, pinned float64, decimals int) {
	if math.Abs(got-pinned) > 0.5*math.Pow(10, -float64(decimals)) {
		*errs = append(*errs, fmt.Sprintf("%s = %.*f, want %.*f", what, decimals+2, got, decimals, pinned))
	}
}

// checkFigure verifies one experiment's headline numbers. results[i]
// holds the results of cells[i], nil when that run failed.
func checkFigure(exp string, cells []sweepCell, results []*run.Results) []string {
	var errs []string
	switch exp {
	case "use-case-1-parsec":
		study := &experiments.ParsecStudy{
			Apps:    workloads.ParsecAppNames(),
			Cores:   workloads.ParsecCoreCounts,
			Seconds: map[string]map[string]map[int]float64{},
		}
		for i, c := range cells {
			osName, app := param(c.spec, "os"), param(c.spec, "benchmark")
			n, _ := strconv.Atoi(param(c.spec, "num_cpus"))
			if study.Seconds[osName] == nil {
				study.Seconds[osName] = map[string]map[int]float64{}
			}
			if study.Seconds[osName][app] == nil {
				study.Seconds[osName][app] = map[int]float64{}
			}
			if results[i] != nil {
				study.Seconds[osName][app][n] = results[i].SimSeconds
			}
		}
		slower := 0
		var gap1, gap8, s18, s20 float64
		for _, app := range study.Apps {
			if study.Diff(app, 1) > 0 {
				slower++
			}
			gap1 += study.Diff(app, 1)
			gap8 += study.Diff(app, 8)
			s18 += study.Speedup(workloads.Ubuntu1804.Name, app, 8)
			s20 += study.Speedup(workloads.Ubuntu2004.Name, app, 8)
		}
		n := float64(len(study.Apps))
		want(&errs, "fig6 apps slower on 18.04 (of 10)", float64(slower), 10, 0)
		want(&errs, "fig6 gap ratio 1c/8c", gap1/gap8, 3.688, 3)
		want(&errs, "fig7 mean speedup ubuntu 18.04", s18/n, 4.831, 3)
		want(&errs, "fig7 mean speedup ubuntu 20.04", s20/n, 5.194, 3)
	case "use-case-2-boot":
		study := &experiments.BootStudy{Outcome: map[string]string{}}
		for i, c := range cells {
			n, _ := strconv.Atoi(param(c.spec, "num_cpus"))
			spec := kernel.Spec{
				Kernel: kernel.Version(param(c.spec, "kernel")),
				CPU:    cpu.Model(param(c.spec, "cpu")),
				Mem:    param(c.spec, "mem_sys"),
				Cores:  n,
				Boot:   kernel.BootType(param(c.spec, "boot_type")),
			}
			study.Cells = append(study.Cells, spec)
			if results[i] != nil {
				study.Outcome[spec.String()] = results[i].Outcome
			}
		}
		o3 := study.Counts(cpu.O3)
		want(&errs, "fig8 cells", float64(len(study.Cells)), 480, 0)
		want(&errs, "fig8 O3 kernel panics", float64(o3[string(kernel.KernelPanic)]), 27, 0)
		want(&errs, "fig8 O3 segfaults", float64(o3[string(kernel.SimCrash)]), 11, 0)
		want(&errs, "fig8 O3 deadlocks", float64(o3[string(kernel.Deadlock)]), 4, 0)
		want(&errs, "fig8 O3 timeouts", float64(o3[string(kernel.Timeout)]), 16, 0)
		want(&errs, "fig8 O3 successes", float64(o3[string(kernel.Success)]), 32, 0)
	case "use-case-3-gpu":
		study := &experiments.GPUStudy{
			Names: workloads.GPUWorkloadNames(),
			Ticks: map[string]map[string]float64{string(gpu.Simple): {}, string(gpu.Dynamic): {}},
		}
		for i, c := range cells {
			if results[i] != nil {
				study.Ticks[param(c.spec, "reg_alloc")][param(c.spec, "app")] = results[i].SimSeconds * 1e9
			}
		}
		want(&errs, "fig9 mean simple-over-dynamic advantage", study.MeanSimpleAdvantage(), 1.064, 3)
		want(&errs, "fig9 FAMutex % worse with dynamic", (1/study.Speedup("FAMutex")-1)*100, 61.46, 2)
		want(&errs, "fig9 fwd_pool % worse with dynamic", (1/study.Speedup("fwd_pool")-1)*100, 26.25, 2)
		want(&errs, "fig9 MatrixTranspose speedup", study.Speedup("MatrixTranspose"), 1.459, 3)
	}
	for i := range errs {
		errs[i] = exp + ": " + errs[i]
	}
	return errs
}
