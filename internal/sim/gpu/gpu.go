// Package gpu implements a GCN3-style GPU timing model sized per the
// paper's Table III: 4 compute units, 4 SIMD16 vector units per CU, up to
// 10 wavefronts per SIMD (40 per CU), 8K vector and scalar registers per
// CU, and 64 KB of LDS per CU, over the shared memory hierarchy.
//
// The model exists to reproduce use case 3 (Figure 9): how the two
// register-allocation policies trade off. The `simple` policy maps one
// workgroup to a CU at a time, placing one wavefront per SIMD16; the
// `dynamic` policy packs as many workgroups as wave slots, registers, and
// LDS allow. Dynamic raises occupancy — which hides memory latency — but
// the model's deliberately simplistic dependence tracking (mirroring the
// public gem5 GCN3 model that the paper calls out) makes dependent
// instructions stall longer as more wavefronts share a SIMD, and global
// atomics serialize, so high occupancy can hurt synchronization-heavy
// kernels.
package gpu

import (
	"fmt"
	"math/rand"
)

// Allocator selects the register-allocation policy.
type Allocator string

// The two policies compared in Figure 9.
const (
	Simple  Allocator = "simple"
	Dynamic Allocator = "dynamic"
)

// Config sizes the GPU. Zero values take Table III defaults.
type Config struct {
	CUs             int // 4
	SIMDsPerCU      int // 4
	MaxWavesPerSIMD int // 10
	VRegsPerCU      int // 8192
	SRegsPerCU      int // 8192
	LDSPerCU        int // 65536 bytes
	FreqHz          uint64
	// PreciseDeps enables the improved dependence tracking the paper
	// proposes as a future gem5 contribution (§VI-C): the scoreboard
	// scan no longer scales with occupancy, so dependent issue costs one
	// cycle regardless of resident wavefronts. Use for ablations.
	PreciseDeps bool
}

// Defaults fills in Table III values.
func (c *Config) Defaults() {
	if c.CUs == 0 {
		c.CUs = 4
	}
	if c.SIMDsPerCU == 0 {
		c.SIMDsPerCU = 4
	}
	if c.MaxWavesPerSIMD == 0 {
		c.MaxWavesPerSIMD = 10
	}
	if c.VRegsPerCU == 0 {
		c.VRegsPerCU = 8192
	}
	if c.SRegsPerCU == 0 {
		c.SRegsPerCU = 8192
	}
	if c.LDSPerCU == 0 {
		c.LDSPerCU = 64 * 1024
	}
	if c.FreqHz == 0 {
		c.FreqHz = 1_000_000_000
	}
}

// KernelDesc describes one GPU kernel launch: its shape (workgroups and
// wavefronts), resource demands (registers, LDS), and dynamic instruction
// profile. Workload models (Table IV) are expressed as KernelDescs.
type KernelDesc struct {
	Name         string
	WGs          int // workgroups in the grid
	WavesPerWG   int
	VRegsPerWave int // vector registers demanded by each wavefront
	SRegsPerWave int
	LDSPerWG     int // bytes
	OpsPerWave   int // dynamic ops per wavefront

	MemFrac    float64 // global memory ops
	LDSFrac    float64 // LDS ops
	AtomicFrac float64 // contended global atomics (sync primitives)
	DepDensity float64 // fraction of VALU ops dependent on the previous op
	Locality   float64 // probability a global access hits the L1
	Barriers   int     // workgroup-wide barriers per wavefront
	// AtomicChannels is the number of independent contended lines the
	// kernel's atomics spread over (1 = one global lock; HeteroSync's
	// "Uniq" variants use per-workgroup locks and so contend less).
	AtomicChannels int
	Seed           int64
}

// Validate sanity-checks a descriptor against a config.
func (k *KernelDesc) Validate(cfg Config) error {
	cfg.Defaults()
	if k.WGs <= 0 || k.WavesPerWG <= 0 || k.OpsPerWave <= 0 {
		return fmt.Errorf("gpu: %s: non-positive shape", k.Name)
	}
	if k.WavesPerWG > cfg.SIMDsPerCU*cfg.MaxWavesPerSIMD {
		return fmt.Errorf("gpu: %s: workgroup of %d waves exceeds CU capacity %d",
			k.Name, k.WavesPerWG, cfg.SIMDsPerCU*cfg.MaxWavesPerSIMD)
	}
	if k.VRegsPerWave*k.WavesPerWG > cfg.VRegsPerCU {
		return fmt.Errorf("gpu: %s: one workgroup needs %d vregs, CU has %d",
			k.Name, k.VRegsPerWave*k.WavesPerWG, cfg.VRegsPerCU)
	}
	if k.SRegsPerWave*k.WavesPerWG > cfg.SRegsPerCU {
		return fmt.Errorf("gpu: %s: one workgroup needs %d sregs, CU has %d",
			k.Name, k.SRegsPerWave*k.WavesPerWG, cfg.SRegsPerCU)
	}
	if k.LDSPerWG > cfg.LDSPerCU {
		return fmt.Errorf("gpu: %s: LDS %d exceeds CU LDS %d", k.Name, k.LDSPerWG, cfg.LDSPerCU)
	}
	return nil
}

// Timing constants (cycles).
const (
	valuPipe     = 4   // base VALU result latency
	l1HitLat     = 30  // global access, L1 hit
	l1MissLat    = 300 // global access, miss to L2/DRAM
	ldsLat       = 6
	atomicLat    = 120 // base serialized global atomic
	memPortOcc   = 8   // coalescer occupancy per global access
	dynDispatch  = 40  // dynamic-allocator bookkeeping per workgroup launch
	maxCycleSafe = 500_000_000
)

// depIssueCycles is how long the issue stage holds a SIMD while the
// simplistic dependence tracker scans in-flight state for a dependent
// op: one cycle plus 2.5 cycles per extra co-resident wave (the tracker
// rescans every in-flight wavefront's outstanding registers on each
// dependent issue). This is the deliberate model deficiency from §VI-C —
// the scan cost grows with occupancy, so packing more wavefronts
// throttles dependence-dense code below the single-wave-per-SIMD
// baseline, which is why the simple allocator wins on such kernels.
func depIssueCycles(residentOnSIMD int) uint64 {
	return 1 + uint64(5*(residentOnSIMD-1))/2
}

// Result reports one kernel simulation.
type Result struct {
	Kernel       string
	Allocator    Allocator
	Cycles       uint64 // shader ticks at 1 GHz
	Ops          uint64
	MemAccesses  uint64
	AtomicOps    uint64
	AvgOccupancy float64 // mean resident waves per CU
	DepStalls    uint64  // cycles lost to dependence tracking
	MemStalls    uint64
	AtomicStalls uint64
}

type wave struct {
	wg       *workgroup
	slot     int // cu*SIMDsPerCU + simd, indexing the per-SIMD state
	simd     int
	opsLeft  int
	readyAt  uint64
	rng      *rand.Rand
	barriers int
	atBar    bool
	done     bool
}

type workgroup struct {
	id        int
	cu        int
	waves     []wave
	remaining int
	barWait   int // waves currently parked at the barrier
}

type cuState struct {
	freeVRegs int
	freeSRegs int
	freeLDS   int
	perSIMD   []int // resident waves per SIMD
	resident  int
	memFree   uint64 // coalescer port availability
	wgs       int    // resident workgroups
}

// waitEntry is a wave, by index into the run's wave slice, waiting in
// the heap until its readyAt. Entries hold no pointers, so heap moves
// cost the garbage collector nothing.
type waitEntry struct {
	at uint64
	w  int32
}

// waitHeap is a binary min-heap of waitEntry keyed by at. It is typed
// rather than built on container/heap: the interface calls cost more
// than the heap work itself on this path.
type waitHeap []waitEntry

func (h *waitHeap) push(e waitEntry) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if q[p].at <= e.at {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
	*h = q
}

// pop removes the minimum; the heap must be non-empty.
func (h *waitHeap) pop() waitEntry {
	q := *h
	top := q[0]
	last := q[len(q)-1]
	q = q[:len(q)-1]
	n := len(q)
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && q[c+1].at < q[c].at {
				c++
			}
			if last.at <= q[c].at {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	*h = q
	return top
}

// insertSorted adds w to an ascending list of wave indices.
func insertSorted(l []int32, w int32) []int32 {
	l = append(l, w)
	i := len(l) - 1
	for i > 0 && l[i-1] > w {
		l[i] = l[i-1]
		i--
	}
	l[i] = w
	return l
}

// Run simulates one kernel launch under the given allocator and returns
// timing and occupancy statistics. It is deterministic for a fixed
// descriptor.
//
// The shader loop is event driven: after a cycle with no issue it jumps
// to the next cycle where a wait ends or a busy SIMD frees, and within a
// cycle it touches only the waves that issue. A resident wave is in
// exactly one of four places:
//   - the waiting heap, until its readyAt;
//   - its SIMD's ready list;
//   - parked at a barrier, in no structure until the release;
//   - done.
//
// Waves are indexed in placement order (workgroups place in grid order,
// each one's waves in order), and ready lists keep that order. At a
// visited cycle the head of each ready list whose SIMD is free issues,
// and the picks are processed in placement order. An issue holds its
// SIMD until at least the next cycle, so at most one wave per SIMD
// issues in a cycle, and placement order applies shared-state updates
// (atomic lines, coalescer ports, finishes and the dispatches they
// trigger) in the order a scan over all resident waves would.
func Run(cfg Config, k KernelDesc, alloc Allocator) (Result, error) {
	cfg.Defaults()
	if err := k.Validate(cfg); err != nil {
		return Result{}, err
	}
	res := Result{Kernel: k.Name, Allocator: alloc}
	nSIMD := cfg.CUs * cfg.SIMDsPerCU

	cus := make([]cuState, cfg.CUs)
	perSIMD := make([]int, nSIMD)
	for i := range cus {
		cus[i] = cuState{
			freeVRegs: cfg.VRegsPerCU,
			freeSRegs: cfg.SRegsPerCU,
			freeLDS:   cfg.LDSPerCU,
			perSIMD:   perSIMD[i*cfg.SIMDsPerCU : (i+1)*cfg.SIMDsPerCU],
		}
	}

	wgs := make([]workgroup, k.WGs)
	waves := make([]wave, k.WGs*k.WavesPerWG)
	for i := range wgs {
		wg := &wgs[i]
		*wg = workgroup{id: i, remaining: k.WavesPerWG,
			waves: waves[i*k.WavesPerWG : (i+1)*k.WavesPerWG]}
		for w := range wg.waves {
			wg.waves[w] = wave{
				wg:       wg,
				opsLeft:  k.OpsPerWave,
				barriers: k.Barriers,
			}
		}
	}
	pending := wgs // not yet placed, in grid order

	var (
		cycle    uint64
		live     int      // placed, unfinished waves
		resident int      // sum of cus[*].resident
		waiting  waitHeap // readyAt in the future
		ready    = make([][]int32, nSIMD)
		simdBusy = make([]uint64, nSIMD) // busy-until cycle per SIMD
		spare    []*rand.Rand            // generators of finished waves
	)
	for s := range ready {
		ready[s] = make([]int32, 0, cfg.MaxWavesPerSIMD)
	}
	atomicChannels := k.AtomicChannels
	if atomicChannels < 1 {
		atomicChannels = 1
	}
	atomicFree := make([]uint64, atomicChannels)

	canPlace := func(cu *cuState) bool {
		if alloc == Simple && cu.wgs >= 1 {
			return false
		}
		if cu.freeVRegs < k.VRegsPerWave*k.WavesPerWG ||
			cu.freeSRegs < k.SRegsPerWave*k.WavesPerWG ||
			cu.freeLDS < k.LDSPerWG ||
			cu.resident+k.WavesPerWG > cfg.SIMDsPerCU*cfg.MaxWavesPerSIMD {
			return false
		}
		// Every wave needs a SIMD slot.
		slots := 0
		for _, n := range cu.perSIMD {
			slots += cfg.MaxWavesPerSIMD - n
		}
		return slots >= k.WavesPerWG
	}

	// place makes a workgroup resident. Its waves start in the heap, so a
	// wave placed during a cycle first competes at the next visited one.
	place := func(cuIdx int, wg *workgroup) {
		cu := &cus[cuIdx]
		cu.freeVRegs -= k.VRegsPerWave * k.WavesPerWG
		cu.freeSRegs -= k.SRegsPerWave * k.WavesPerWG
		cu.freeLDS -= k.LDSPerWG
		cu.wgs++
		wg.cu = cuIdx
		for i := range wg.waves {
			w := &wg.waves[i]
			// The dynamic allocator's per-launch register scan delays the
			// workgroup's waves; the simple allocator's fixed mapping is
			// free.
			if alloc == Dynamic && cycle+dynDispatch > w.readyAt {
				w.readyAt = cycle + dynDispatch
			}
			// Least-loaded SIMD, matching the simple policy's one-wave-
			// per-SIMD layout when the CU is empty.
			best := 0
			for s := 1; s < cfg.SIMDsPerCU; s++ {
				if cu.perSIMD[s] < cu.perSIMD[best] {
					best = s
				}
			}
			w.simd = best
			w.slot = cuIdx*cfg.SIMDsPerCU + best
			// Each wave draws from its own stream, seeded by its grid
			// position. Reseeding a finished wave's generator yields the
			// same stream as a fresh one without allocating it.
			seed := k.Seed + int64(wg.id)*1000 + int64(i)
			if n := len(spare); n > 0 {
				w.rng = spare[n-1]
				spare = spare[:n-1]
				w.rng.Seed(seed)
			} else {
				w.rng = rand.New(rand.NewSource(seed))
			}
			cu.perSIMD[best]++
			cu.resident++
			resident++
			live++
			waiting.push(waitEntry{w.readyAt, int32(wg.id*k.WavesPerWG + i)})
		}
	}

	dispatch := func() {
		for len(pending) > 0 {
			placed := false
			for cuIdx := range cus {
				if len(pending) == 0 {
					break
				}
				if canPlace(&cus[cuIdx]) {
					place(cuIdx, &pending[0])
					pending = pending[1:]
					placed = true
				}
			}
			if !placed {
				break
			}
		}
	}
	dispatch()
	if live == 0 {
		return Result{}, fmt.Errorf("gpu: %s: dispatch wedged with %d pending WGs",
			k.Name, len(pending))
	}

	finish := func(w *wave) {
		w.done = true
		spare = append(spare, w.rng)
		w.rng = nil
		wg := w.wg
		cu := &cus[wg.cu]
		cu.perSIMD[w.simd]--
		cu.resident--
		resident--
		live--
		wg.remaining--
		if wg.remaining == 0 {
			cu.freeVRegs += k.VRegsPerWave * k.WavesPerWG
			cu.freeSRegs += k.SRegsPerWave * k.WavesPerWG
			cu.freeLDS += k.LDSPerWG
			cu.wgs--
			dispatch()
		}
	}

	// wake requeues a wave during an issuing cycle. A cycle that issues
	// is always followed by the next one, so a wave ready by then joins
	// its ready list directly instead of passing through the heap.
	wake := func(wi int32) {
		w := &waves[wi]
		if w.readyAt <= cycle+1 {
			ready[w.slot] = insertSorted(ready[w.slot], wi)
		} else {
			waiting.push(waitEntry{w.readyAt, wi})
		}
	}

	var occupancySamples, occupancySum uint64
	picks := make([]int32, 0, nSIMD)

	for live > 0 {
		if cycle > maxCycleSafe {
			return Result{}, fmt.Errorf("gpu: %s: exceeded cycle safety limit", k.Name)
		}
		// Sample occupancy every 64 cycles.
		if cycle%64 == 0 {
			occupancySum += uint64(resident)
			occupancySamples++
		}

		// Waves whose wait has elapsed join their SIMD's ready list.
		for len(waiting) > 0 && waiting[0].at <= cycle {
			i := waiting.pop().w
			s := waves[i].slot
			ready[s] = insertSorted(ready[s], i)
		}

		// Each free SIMD issues from the head of its ready list; a busy
		// one bounds the next wake-up.
		picks = picks[:0]
		nextBusy := ^uint64(0)
		for s, l := range ready {
			if len(l) == 0 {
				continue
			}
			if simdBusy[s] > cycle {
				nextBusy = min(nextBusy, simdBusy[s])
				continue
			}
			picks = insertSorted(picks, l[0])
			copy(l, l[1:])
			ready[s] = l[:len(l)-1]
		}

		if len(picks) == 0 {
			// Nothing issued: jump to the next wake-up. With none left
			// (every live wave parked for good) the jump overshoots the
			// safety limit.
			cycle = nextBusy
			if len(waiting) > 0 {
				cycle = min(cycle, waiting[0].at)
			}
			continue
		}

		for _, wi := range picks {
			w := &waves[wi]
			// Issue one op from this wave.
			simdBusy[w.slot] = cycle + 1
			res.Ops++
			w.opsLeft--
			cu := &cus[w.wg.cu]
			r := w.rng.Float64()
			switch {
			case r < k.AtomicFrac:
				// Contended global atomics serialize per lock line, and
				// each one costs more as more waves fight for the line
				// (retries and cache-line ping-pong): three extra cycles
				// per four co-resident waves.
				ch := 0
				if atomicChannels > 1 {
					ch = w.wg.id % atomicChannels
				}
				start := max64(cycle, atomicFree[ch])
				done := start + atomicLat + uint64(3*(resident-1))/4
				atomicFree[ch] = done
				res.AtomicStalls += done - cycle
				res.AtomicOps++
				w.readyAt = done
			case r < k.AtomicFrac+k.MemFrac:
				start := max64(cycle, cu.memFree)
				cu.memFree = start + memPortOcc
				lat := uint64(l1MissLat)
				if w.rng.Float64() < k.Locality {
					lat = l1HitLat
				}
				res.MemStalls += (start - cycle) + lat
				res.MemAccesses++
				w.readyAt = start + lat
			case r < k.AtomicFrac+k.MemFrac+k.LDSFrac:
				w.readyAt = cycle + ldsLat
			default:
				// VALU. A dependent op requires a dependence-tracker scan
				// that occupies the SIMD issue stage for longer as more
				// waves are resident, and the wave itself waits for the
				// pipeline. With PreciseDeps the scan is O(1).
				if w.rng.Float64() < k.DepDensity {
					issue := uint64(1)
					if !cfg.PreciseDeps {
						issue = depIssueCycles(cu.perSIMD[w.simd])
					}
					simdBusy[w.slot] = cycle + issue
					res.DepStalls += issue - 1
					w.readyAt = cycle + valuPipe
				} else {
					w.readyAt = cycle + 1
				}
			}
			// Barrier points are evenly spaced through the wave.
			if w.barriers > 0 && k.Barriers > 0 &&
				w.opsLeft == (k.OpsPerWave*w.barriers)/(k.Barriers+1) {
				w.barriers--
				w.atBar = true
				w.wg.barWait++
				if w.wg.barWait == len(w.wg.waves) {
					// Every wave is parked here; release them all. The
					// issuing wave is requeued below like any other.
					w.atBar = false
					base := w.wg.id * k.WavesPerWG
					for i := range w.wg.waves {
						ww := &w.wg.waves[i]
						if ww == w || ww.done {
							continue
						}
						ww.atBar = false
						if ww.readyAt < cycle+1 {
							ww.readyAt = cycle + 1
						}
						wake(int32(base + i))
					}
					w.wg.barWait = 0
				}
			}
			switch {
			case w.opsLeft <= 0:
				if w.atBar {
					// A wave finishing at a barrier releases it.
					w.wg.barWait--
					w.atBar = false
				}
				finish(w)
			case !w.atBar:
				wake(wi)
			}
		}
		cycle++
	}

	res.Cycles = cycle
	if occupancySamples > 0 {
		res.AvgOccupancy = float64(occupancySum) / float64(occupancySamples) / float64(cfg.CUs)
	}
	return res, nil
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// Speedup returns dynamic-over-simple performance for a kernel: >1 means
// the dynamic allocator is faster (Figure 9's y-axis).
func Speedup(cfg Config, k KernelDesc) (float64, error) {
	s, err := Run(cfg, k, Simple)
	if err != nil {
		return 0, err
	}
	d, err := Run(cfg, k, Dynamic)
	if err != nil {
		return 0, err
	}
	if d.Cycles == 0 {
		return 0, fmt.Errorf("gpu: %s: zero-cycle dynamic run", k.Name)
	}
	return float64(s.Cycles) / float64(d.Cycles), nil
}
