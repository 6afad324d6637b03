package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"gem5art/internal/core/artifact"
	"gem5art/internal/core/launch"
	"gem5art/internal/core/run"
	"gem5art/internal/experiments"
	"gem5art/internal/resources"
	"gem5art/internal/sim/gpu"
	"gem5art/internal/sim/kernel"
	"gem5art/internal/simcache"
	"gem5art/internal/workloads"
)

// sweepCell is one run of a figure sweep: the spec handed to
// Experiment.LaunchFS, and a direct call of the simulator function the
// run's handler executes, used by the traced run to time that layer
// alone. The probe returns its work count (instructions or GPU ops),
// which must equal the count the run recorded.
type sweepCell struct {
	spec  run.FSSpec
	probe func(t *Tracer, parent uint64) uint64
}

// sweepExp is one experiment of a pass: a named set of cells launched
// together and waited on, as one regenerated figure.
type sweepExp struct {
	name  string
	cells []sweepCell
}

// fsSpec mirrors the run spec the experiments package assembles for a
// figure cell, so benchmark runs are the runs a figure regeneration
// makes.
func fsSpec(env *experiments.Env, name, script, kernelVersion string, disk *artifact.Artifact, params []string) run.FSSpec {
	kern := env.Kernels[kernelVersion]
	return run.FSSpec{
		Name:                 name,
		Gem5Binary:           "gem5/build/X86/gem5.opt",
		RunScript:            script,
		Output:               "results/" + name,
		Gem5Artifact:         env.Gem5,
		Gem5GitArtifact:      env.Gem5Git,
		RunScriptGitArtifact: env.Scripts,
		LinuxBinary:          kern.Path,
		DiskImage:            disk.Path,
		LinuxBinaryArtifact:  kern,
		DiskImageArtifact:    disk,
		Params:               params,
		Timeout:              10 * time.Minute,
	}
}

func shuffle[T any](rng *rand.Rand, xs []T) []T {
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	return xs
}

// parsecExp is use case 1 (Figures 6 and 7): 10 apps x 2 images x
// {1,2,8} cores, launched in seeded order.
func parsecExp(env *experiments.Env, rng *rand.Rand) sweepExp {
	var cells []sweepCell
	for _, osImg := range workloads.OSImages {
		for _, app := range workloads.ParsecAppNames() {
			for _, n := range workloads.ParsecCoreCounts {
				osImg, app, n := osImg, app, n
				name := fmt.Sprintf("parsec-%s-%s-%dc", osImg.Name, app, n)
				cells = append(cells, sweepCell{
					spec: fsSpec(env, name, "configs/run_parsec.py", osImg.Kernel,
						env.ParsecDisk[osImg.Name], []string{
							"benchmark=" + app,
							"cpu=TimingSimpleCPU",
							fmt.Sprintf("num_cpus=%d", n),
							"size=simmedium",
							"os=" + osImg.Name,
						}),
					probe: func(t *Tracer, parent uint64) uint64 {
						a, err := workloads.FindParsec(app)
						if err != nil {
							return 0
						}
						sp := t.Begin("workloads.parsec", name, parent)
						m, err := workloads.ExecParsec(a, osImg, n)
						if err != nil {
							sp.End(0, nil)
							return 0
						}
						sp.End(m.Insts, nil)
						return m.Insts
					},
				})
			}
		}
	}
	return sweepExp{name: "use-case-1-parsec", cells: shuffle(rng, cells)}
}

// bootExp is use case 2 (Figure 8): the 480-cell boot matrix in seeded
// order. Cell names keep the matrix index, so they do not depend on the
// order.
func bootExp(env *experiments.Env, rng *rand.Rand) sweepExp {
	var cells []sweepCell
	for i, c := range kernel.Sweep() {
		c := c
		name := fmt.Sprintf("boot-%04d-%s-%s-%s-%dc-%s", i, c.Kernel, c.CPU, c.Mem, c.Cores, c.Boot)
		cells = append(cells, sweepCell{
			spec: fsSpec(env, name, "configs/run_exit.py", string(c.Kernel), env.BootDisk, []string{
				"kernel=" + string(c.Kernel),
				"cpu=" + string(c.CPU),
				"mem_sys=" + c.Mem,
				fmt.Sprintf("num_cpus=%d", c.Cores),
				"boot_type=" + string(c.Boot),
			}),
			probe: func(t *Tracer, parent uint64) uint64 {
				return probeBoot(t, name, parent, c)
			},
		})
	}
	return sweepExp{name: "use-case-2-boot", cells: shuffle(rng, cells)}
}

// probeBoot times one boot exactly as the boot-exit run script runs it.
func probeBoot(t *Tracer, trace string, parent uint64, c kernel.Spec) uint64 {
	sp := t.Begin("sim.boot", trace, parent)
	res := kernel.BootWith(c, workloads.BootBudget, kernel.BootOptions{})
	sp.End(res.Insts, map[string]string{"cpu": string(c.CPU), "mem": c.Mem})
	return res.Insts
}

// gpuExp is use case 3 (Figure 9): 29 Table IV apps under both
// register allocators, in seeded order, on the GCN3 build.
func gpuExp(env *experiments.Env, rng *rand.Rand) sweepExp {
	var cells []sweepCell
	for _, app := range workloads.GPUWorkloadNames() {
		for _, alloc := range []gpu.Allocator{gpu.Simple, gpu.Dynamic} {
			app, alloc := app, alloc
			name := fmt.Sprintf("gpu-%s-%s", app, alloc)
			spec := fsSpec(env, name, "configs/run_gpu.py", "5.4.49", env.BootDisk, []string{
				"app=" + app,
				"reg_alloc=" + string(alloc),
			})
			spec.Gem5Binary = env.Gem5GPU.Path
			spec.Gem5Artifact = env.Gem5GPU
			cells = append(cells, sweepCell{
				spec: spec,
				probe: func(t *Tracer, parent uint64) uint64 {
					w, err := workloads.FindGPUWorkload(app)
					if err != nil {
						return 0
					}
					sp := t.Begin("sim.gpu", name, parent)
					res, err := gpu.Run(gpu.Config{}, w.Kernel, alloc)
					if err != nil {
						sp.End(0, nil)
						return 0
					}
					sp.End(res.Ops, nil)
					return res.Ops
				},
			})
		}
	}
	return sweepExp{name: "use-case-3-gpu", cells: shuffle(rng, cells)}
}

// launchExps drives each experiment through core/launch — LaunchFS per
// cell, then Wait — and returns the launched runs per experiment.
func launchExps(reg *artifact.Registry, cache *simcache.Cache, workers int, exps []sweepExp, t *Tracer, parent uint64) ([][]*run.Run, error) {
	out := make([][]*run.Run, len(exps))
	for i, x := range exps {
		e := launch.NewExperiment(x.name, reg, workers)
		if cache != nil {
			e.SetCache(cache)
		}
		for _, c := range x.cells {
			sp := t.Begin("launch.LaunchFS", c.spec.Name, parent)
			r, err := e.LaunchFS(c.spec)
			sp.End(0, nil)
			if err != nil {
				e.Close()
				return nil, fmt.Errorf("launch %s: %w", c.spec.Name, err)
			}
			t.bindTrace(r.ID, c.spec.Name)
			out[i] = append(out[i], r)
		}
		sp := t.Begin("launch.Wait", x.name, parent)
		e.Wait(context.Background())
		sp.End(0, nil)
		e.Close()
	}
	return out, nil
}

// sweepWorkload regenerates figures through the experiment stack. A
// cycle provisions a fresh environment (the timed set-up) and runs one
// cold pass; with a cache it then re-launches the same matrix warm.
type sweepWorkload struct {
	name string
	// journaled keeps the store on disk (under the run's scratch
	// directory) and memoizes runs through a simcache.Cache.
	journaled bool
	// warmPasses re-launch the matrix this many times after the cold
	// pass; only meaningful with a cache.
	warmPasses int
	// exps builds one pass's experiments in seeded order.
	exps func(env *experiments.Env, rng *rand.Rand) []sweepExp
	// prepare runs inside the timed pass before launching, for work a
	// figure regeneration does besides its runs.
	prepare func(env *experiments.Env) error
}

// sweepSetup is what a cycle runs on: the provisioned environment, its
// cache, and the timing decorator over its store when traced.
type sweepSetup struct {
	env   *experiments.Env
	cache *simcache.Cache
	ts    *tracedStore
}

// provision is the timed set-up: a fresh experiment environment over a
// new store, plus the simulation cache when the workload uses one.
func (w *sweepWorkload) provision(st *runState, t *Tracer) (*sweepSetup, error) {
	s := &sweepSetup{}
	dir := "" // in memory
	if w.journaled {
		dir = st.scratchDir()
	}
	t0 := time.Now()
	env, err := experiments.NewEnv(dir)
	if err != nil {
		return nil, fmt.Errorf("provision environment: %w", err)
	}
	s.env = env
	if t != nil {
		// The environment's registry is rebuilt over the timing
		// decorator; the artifacts it registered stay in the store.
		s.ts = newTracedStore(env.DB(), t)
		env.Reg = artifact.NewRegistry(s.ts)
	}
	if w.journaled {
		s.cache = simcache.New(env.Reg.DB(), simcache.Options{Dir: dir})
	}
	st.addSetup(time.Since(t0))
	return s, nil
}

func (s *sweepSetup) close() {
	_ = s.env.DB().Close()
}

func (w *sweepWorkload) setupOnly(st *runState) error {
	s, err := w.provision(st, nil)
	if err != nil {
		return err
	}
	s.close()
	return nil
}

func (w *sweepWorkload) cycle(st *runState, t *Tracer) error {
	s, err := w.provision(st, t)
	if err != nil {
		return err
	}
	defer s.close()
	env, cache, ts := s.env, s.cache, s.ts

	var cold map[string]string
	for pass := 0; pass <= w.warmPasses; pass++ {
		kind := passCold
		if pass > 0 {
			kind = passWarm
		}
		exps := w.exps(env, st.rng)
		var before simcache.Stats
		if cache != nil {
			before = cache.Stats()
		}
		ps := t.Begin("bench.pass", fmt.Sprintf("%s-%d", kind, st.passes), 0)
		if ts != nil {
			ts.under(fmt.Sprintf("%s-%d", kind, st.passes), ps.ID())
		}
		settle()
		mem := st.memBefore(t)
		start := time.Now()
		if w.prepare != nil {
			if err := w.prepare(env); err != nil {
				return err
			}
		}
		runs, err := launchExps(env.Reg, cache, st.workers, exps, t, ps.ID())
		wall := time.Since(start)
		ps.End(0, map[string]string{"kind": kind})
		if err != nil {
			return err
		}
		st.memAfter(kind, mem)
		if cache != nil {
			st.addCacheStats(kind, t, before, cache.Stats())
		}
		lines := st.checkRuns(exps, runs, kind == passWarm)
		if kind == passCold {
			cold = lines
		} else {
			for name, line := range lines {
				if cold[name] != line {
					st.fail("%s: warm result of %s differs from its cold result", w.name, name)
					break
				}
			}
		}
		var simHost time.Duration
		if t != nil && kind == passCold {
			pr := t.Begin("bench.probe", fmt.Sprintf("probe-%d", st.passes), 0)
			simHost = probeSims(t, pr.ID(), exps, runs, st)
			pr.End(0, nil)
		}
		st.addPass(kind, wall, runs, t != nil, simHost)
	}
	return nil
}

// probeSims re-executes, outside a cold pass, every cell the pass
// simulated, timing the simulator layer alone, and checks each probe's
// work count against the run's. It returns the summed simulator host
// time. Warm passes replay from the cache and simulate nothing.
func probeSims(t *Tracer, parent uint64, exps []sweepExp, runs [][]*run.Run, st *runState) time.Duration {
	var total time.Duration
	for i, x := range exps {
		st.unit(x.name)
		for j, c := range x.cells {
			r := runs[i][j]
			start := time.Now()
			n := c.probe(t, parent)
			total += time.Since(start)
			if r.Results != nil && n != r.Results.Insts {
				st.fail("%s: direct simulation counted %d, the run recorded %d", c.spec.Name, n, r.Results.Insts)
			}
		}
	}
	return total
}

var cpuFigures = &sweepWorkload{
	name: "cpu-figures",
	exps: func(env *experiments.Env, rng *rand.Rand) []sweepExp {
		return []sweepExp{parsecExp(env, rng), bootExp(env, rng)}
	},
}

var gpuFigure = &sweepWorkload{
	name: "gpu-figure",
	exps: func(env *experiments.Env, rng *rand.Rand) []sweepExp {
		return []sweepExp{gpuExp(env, rng)}
	},
	prepare: func(env *experiments.Env) error {
		// Table IV: every descriptor must validate against Table III,
		// and use case 3 records its docker environment resource.
		for _, w := range workloads.GPUWorkloads() {
			if err := w.Kernel.Validate(gpu.Config{}); err != nil {
				return fmt.Errorf("table IV: %s: %w", w.Kernel.Name, err)
			}
		}
		_, err := resources.Build(env.Reg, "GCN-docker", resources.BuildOptions{})
		return err
	},
}

var cacheRerun = &sweepWorkload{
	name:       "cache-rerun",
	journaled:  true,
	warmPasses: 3,
	exps: func(env *experiments.Env, rng *rand.Rand) []sweepExp {
		return []sweepExp{bootExp(env, rng)}
	},
}
