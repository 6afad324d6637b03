package gpu

import (
	"testing"
)

func baseKernel() KernelDesc {
	return KernelDesc{
		Name: "base", WGs: 16, WavesPerWG: 4, VRegsPerWave: 256,
		OpsPerWave: 400, MemFrac: 0.2, DepDensity: 0.3, Locality: 0.7, Seed: 1,
	}
}

func TestRunCompletes(t *testing.T) {
	res, err := Run(Config{}, baseKernel(), Simple)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.Ops == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	wantOps := uint64(16 * 4 * 400)
	if res.Ops != wantOps {
		t.Fatalf("ops = %d, want %d", res.Ops, wantOps)
	}
}

func TestDeterminism(t *testing.T) {
	k := baseKernel()
	a, err := Run(Config{}, k, Dynamic)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{}, k, Dynamic)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestDynamicRaisesOccupancy(t *testing.T) {
	k := baseKernel()
	s, err := Run(Config{}, k, Simple)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Run(Config{}, k, Dynamic)
	if err != nil {
		t.Fatal(err)
	}
	if d.AvgOccupancy <= s.AvgOccupancy {
		t.Fatalf("dynamic occupancy %.2f not above simple %.2f",
			d.AvgOccupancy, s.AvgOccupancy)
	}
	// Simple: one WG (4 waves) per CU at a time.
	if s.AvgOccupancy > float64(k.WavesPerWG)+0.5 {
		t.Fatalf("simple occupancy %.2f exceeds one workgroup per CU", s.AvgOccupancy)
	}
}

func TestMemoryBoundKernelPrefersDynamic(t *testing.T) {
	// Lots of independent memory ops and many WGs: occupancy hides
	// latency, so dynamic must win (inline_asm/MatrixTranspose behavior).
	k := KernelDesc{
		Name: "membound", WGs: 64, WavesPerWG: 4, VRegsPerWave: 128,
		OpsPerWave: 300, MemFrac: 0.45, DepDensity: 0.05, Locality: 0.2, Seed: 2,
	}
	sp, err := Speedup(Config{}, k)
	if err != nil {
		t.Fatal(err)
	}
	if sp <= 1.05 {
		t.Fatalf("dynamic speedup = %.3f, want > 1.05 on latency-bound kernel", sp)
	}
}

func TestAtomicHeavyKernelPrefersSimple(t *testing.T) {
	// Mutex-style kernels: global atomics serialize, so adding waves only
	// lengthens the queue (FAMutex behavior).
	k := KernelDesc{
		Name: "mutex", WGs: 32, WavesPerWG: 4, VRegsPerWave: 64,
		OpsPerWave: 200, MemFrac: 0.1, AtomicFrac: 0.25, DepDensity: 0.2,
		Locality: 0.6, Seed: 3,
	}
	sp, err := Speedup(Config{}, k)
	if err != nil {
		t.Fatal(err)
	}
	if sp >= 0.95 {
		t.Fatalf("dynamic speedup = %.3f, want < 0.95 on atomic-heavy kernel", sp)
	}
}

func TestDependenceHeavyKernelPrefersSimple(t *testing.T) {
	// Dense dependence chains suffer the simplistic dependence tracking
	// at high occupancy (bwd_pool/fwd_pool behavior).
	k := KernelDesc{
		Name: "dep", WGs: 32, WavesPerWG: 4, VRegsPerWave: 64,
		OpsPerWave: 300, MemFrac: 0.05, DepDensity: 0.9, Locality: 0.9, Seed: 4,
	}
	sp, err := Speedup(Config{}, k)
	if err != nil {
		t.Fatal(err)
	}
	if sp >= 1.0 {
		t.Fatalf("dynamic speedup = %.3f, want < 1 on dependence-heavy kernel", sp)
	}
}

func TestSmallKernelIndifferent(t *testing.T) {
	// Fewer WGs than CUs: dynamic cannot add occupancy (2dshfl behavior).
	k := KernelDesc{
		Name: "tiny", WGs: 3, WavesPerWG: 2, VRegsPerWave: 64,
		OpsPerWave: 200, MemFrac: 0.2, DepDensity: 0.3, Locality: 0.7, Seed: 5,
	}
	sp, err := Speedup(Config{}, k)
	if err != nil {
		t.Fatal(err)
	}
	if sp < 0.97 || sp > 1.03 {
		t.Fatalf("dynamic speedup = %.3f, want ~1.0 when occupancy cannot rise", sp)
	}
}

func TestRegisterPressureLimitsDynamic(t *testing.T) {
	// Waves so register-hungry that a CU fits only one WG even under
	// dynamic: both policies behave alike.
	k := KernelDesc{
		Name: "fat", WGs: 16, WavesPerWG: 4, VRegsPerWave: 2048, // 8192 = full CU
		OpsPerWave: 200, MemFrac: 0.3, DepDensity: 0.2, Locality: 0.5, Seed: 6,
	}
	s, err := Run(Config{}, k, Simple)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Run(Config{}, k, Dynamic)
	if err != nil {
		t.Fatal(err)
	}
	if d.AvgOccupancy > s.AvgOccupancy*1.1 {
		t.Fatalf("register-bound kernel still raised occupancy: %.2f vs %.2f",
			d.AvgOccupancy, s.AvgOccupancy)
	}
}

func TestBarriersComplete(t *testing.T) {
	k := baseKernel()
	k.Barriers = 3
	k.Name = "barriers"
	res, err := Run(Config{}, k, Dynamic)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != uint64(16*4*400) {
		t.Fatalf("barrier kernel lost ops: %d", res.Ops)
	}
	nores, err := Run(Config{}, baseKernel(), Dynamic)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= nores.Cycles {
		t.Fatalf("barriers (%d cycles) should cost over no barriers (%d)",
			res.Cycles, nores.Cycles)
	}
}

func TestValidateRejectsImpossibleKernels(t *testing.T) {
	cases := []KernelDesc{
		{Name: "zero", WGs: 0, WavesPerWG: 1, OpsPerWave: 1},
		{Name: "toomanywaves", WGs: 1, WavesPerWG: 41, OpsPerWave: 1},
		{Name: "toomanyregs", WGs: 1, WavesPerWG: 8, VRegsPerWave: 2048, OpsPerWave: 1},
		{Name: "toolds", WGs: 1, WavesPerWG: 1, LDSPerWG: 1 << 20, OpsPerWave: 1},
	}
	for _, k := range cases {
		if err := k.Validate(Config{}); err == nil {
			t.Errorf("%s validated", k.Name)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	k := baseKernel()
	k.AtomicFrac = 0.05
	res, err := Run(Config{}, k, Dynamic)
	if err != nil {
		t.Fatal(err)
	}
	if res.MemAccesses == 0 || res.AtomicOps == 0 {
		t.Fatalf("missing accesses: %+v", res)
	}
	if res.DepStalls == 0 {
		t.Fatal("dependence stalls never charged")
	}
	frac := float64(res.AtomicOps) / float64(res.Ops)
	if frac < 0.03 || frac > 0.08 {
		t.Fatalf("atomic fraction = %.3f, want ~0.05", frac)
	}
}

func TestPreciseDepsHelpsDynamic(t *testing.T) {
	// The paper's future-work claim: better dependence tracking would let
	// the dynamic allocator's extra occupancy pay off. With PreciseDeps,
	// a dependence-dense kernel must prefer dynamic again.
	k := KernelDesc{
		Name: "dep", WGs: 32, WavesPerWG: 4, VRegsPerWave: 64,
		OpsPerWave: 300, MemFrac: 0.05, DepDensity: 0.9, Locality: 0.9, Seed: 4,
	}
	baseline, err := Speedup(Config{}, k)
	if err != nil {
		t.Fatal(err)
	}
	improved, err := Speedup(Config{PreciseDeps: true}, k)
	if err != nil {
		t.Fatal(err)
	}
	if improved <= baseline {
		t.Fatalf("precise deps speedup %.3f not above baseline %.3f", improved, baseline)
	}
	if improved <= 1.0 {
		t.Fatalf("precise deps should make dynamic win: %.3f", improved)
	}
}
