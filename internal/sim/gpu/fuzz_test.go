package gpu

import "testing"

// fuzzCase maps fuzz bytes onto a bounded descriptor and config: shapes
// stay small enough for a run to take milliseconds, but every field can
// reach zero, negative or over-capacity values that Validate must
// catch. Missing bytes read as zero.
func fuzzCase(data []byte) (Config, KernelDesc, Allocator) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	frac := func() float64 { return float64(next()) / 255 }
	cfg := Config{
		CUs:             next() % 5,
		SIMDsPerCU:      next() % 5,
		MaxWavesPerSIMD: next() % 13,
		VRegsPerCU:      next() * 64,
		SRegsPerCU:      next() * 64,
		LDSPerCU:        next() * 512,
		PreciseDeps:     next()%2 == 1,
	}
	alloc := Simple
	if next()%2 == 1 {
		alloc = Dynamic
	}
	k := KernelDesc{
		Name:           "fuzz",
		WGs:            next()%40 - 2,
		WavesPerWG:     next()%48 - 2,
		VRegsPerWave:   next()*8 - 64,
		SRegsPerWave:   next()*8 - 64,
		LDSPerWG:       next()*512 - 1024,
		OpsPerWave:     next()%260 - 4,
		MemFrac:        frac(),
		LDSFrac:        frac(),
		AtomicFrac:     frac() / 2,
		DepDensity:     frac(),
		Locality:       frac(),
		Barriers:       next()%10 - 1,
		AtomicChannels: next()%8 - 1,
		Seed:           int64(next()<<8|next()) - 1<<15,
	}
	return cfg, k, alloc
}

// FuzzRun checks the GPU model's contract on arbitrary descriptors:
// Validate is the only gate (Run fails exactly when Validate does), Run
// never panics, a run issues every op of every wave, and two runs of
// the same input agree on every Result field.
func FuzzRun(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, k, alloc := fuzzCase(data)
		verr := k.Validate(cfg)
		res, err := Run(cfg, k, alloc)
		if (verr == nil) != (err == nil) {
			t.Fatalf("Validate error %v but Run error %v for %+v on %+v", verr, err, k, cfg)
		}
		if err != nil {
			return
		}
		if want := uint64(k.WGs * k.WavesPerWG * k.OpsPerWave); res.Ops != want {
			t.Fatalf("ops = %d, want %d for %+v on %+v", res.Ops, want, k, cfg)
		}
		again, err := Run(cfg, k, alloc)
		if err != nil || again != res {
			t.Fatalf("rerun differs: %+v (%v) vs %+v", again, err, res)
		}
	})
}
