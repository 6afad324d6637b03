package gpu_test

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gem5art/internal/sim/gpu"
	"gem5art/internal/workloads"
)

// update rewrites testdata/run.golden from the current model:
//
//	go test ./internal/sim/gpu -run TestRunGolden -update
//
// Only regenerate when a model change is meant to move results; the
// file pins every Result field of the cases below bit for bit.
var update = flag.Bool("update", false, "rewrite testdata/run.golden from the current model")

const goldenPath = "testdata/run.golden"

type goldenCase struct {
	name  string
	cfg   gpu.Config
	k     gpu.KernelDesc
	alloc gpu.Allocator
}

// goldenCases lists the pinned runs: every Table IV kernel under both
// allocators and both dependence trackers, then seeded random valid
// descriptors that reach the corners the Table IV shapes do not —
// barriers, several atomic channels, tiny OpsPerWave, small machines.
func goldenCases() []goldenCase {
	var cases []goldenCase
	allocs := []gpu.Allocator{gpu.Simple, gpu.Dynamic}
	for _, w := range workloads.GPUWorkloads() {
		for _, precise := range []bool{false, true} {
			for _, alloc := range allocs {
				cases = append(cases, goldenCase{
					name:  fmt.Sprintf("table4/%s/%s/precise=%t", w.Kernel.Name, alloc, precise),
					cfg:   gpu.Config{PreciseDeps: precise},
					k:     w.Kernel,
					alloc: alloc,
				})
			}
		}
	}
	rng := rand.New(rand.NewSource(20210328))
	for i := 0; i < 200; i++ {
		cfg, k := randomValidCase(rng, i)
		for _, alloc := range allocs {
			cases = append(cases, goldenCase{
				name: fmt.Sprintf("random/%03d/%s", i, alloc),
				cfg:  cfg, k: k, alloc: alloc,
			})
		}
	}
	return cases
}

// randomValidCase draws a descriptor and config that Validate accepts.
func randomValidCase(rng *rand.Rand, i int) (gpu.Config, gpu.KernelDesc) {
	cfg := gpu.Config{PreciseDeps: rng.Intn(2) == 0}
	if rng.Intn(3) == 0 {
		cfg.CUs = 1 + rng.Intn(4)
		cfg.SIMDsPerCU = 1 + rng.Intn(4)
		cfg.MaxWavesPerSIMD = 1 + rng.Intn(10)
	}
	full := cfg
	full.Defaults()
	waves := 1 + rng.Intn(min(16, full.SIMDsPerCU*full.MaxWavesPerSIMD))
	frac := func(p float64, hi float64) float64 {
		if rng.Float64() >= p {
			return 0
		}
		return hi * rng.Float64()
	}
	k := gpu.KernelDesc{
		Name:         fmt.Sprintf("rand%03d", i),
		WGs:          1 + rng.Intn(40),
		WavesPerWG:   waves,
		VRegsPerWave: rng.Intn(full.VRegsPerCU/waves + 1),
		SRegsPerWave: rng.Intn(full.SRegsPerCU/waves/4 + 1),
		OpsPerWave:   1 + rng.Intn(240),
		MemFrac:      frac(0.8, 0.5),
		LDSFrac:      frac(0.5, 0.3),
		AtomicFrac:   frac(0.4, 0.3),
		DepDensity:   rng.Float64(),
		Locality:     rng.Float64(),
		Seed:         rng.Int63n(1 << 40),
	}
	if rng.Intn(4) == 0 {
		k.OpsPerWave = 1 + rng.Intn(4)
	}
	if rng.Intn(3) == 0 {
		k.LDSPerWG = rng.Intn(full.LDSPerCU + 1)
	}
	if rng.Intn(2) == 0 {
		k.Barriers = 1 + rng.Intn(6)
	}
	if rng.Intn(2) == 0 {
		k.AtomicChannels = rng.Intn(5)
	}
	return cfg, k
}

func goldenLine(c goldenCase) string {
	res, err := gpu.Run(c.cfg, c.k, c.alloc)
	if err != nil {
		return fmt.Sprintf("%s error: %v", c.name, err)
	}
	return fmt.Sprintf("%s %+v", c.name, res)
}

// TestRunGolden compares every field of every pinned Result against the
// golden file, so a change to the shader-cycle loop that shifts any
// statistic — cycles, stalls, occupancy — fails here rather than
// silently moving Figure 9.
func TestRunGolden(t *testing.T) {
	cases := goldenCases()
	if *update {
		var b strings.Builder
		for _, c := range cases {
			b.WriteString(goldenLine(c))
			b.WriteByte('\n')
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Fatalf("golden has %d lines, want %d cases", len(want), len(cases))
	}
	for i, c := range cases {
		if got := goldenLine(c); got != want[i] {
			t.Errorf("%s: result moved\n got: %s\nwant: %s\ncfg: %+v\nkernel: %+v",
				c.name, got, want[i], c.cfg, c.k)
		}
	}
}
