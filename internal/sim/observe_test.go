package sim

import (
	"testing"

	"bankaware/internal/core"
	"bankaware/internal/metrics"
)

// TestObservationDoesNotChangeOutcomes: attaching the metrics layer must
// not perturb the simulation (same seed, same results with and without).
func TestObservationDoesNotChangeOutcomes(t *testing.T) {
	run := func(observe bool) Result {
		cfg := testConfig()
		cfg.EpochCycles = 200_000
		sys, err := New(cfg, core.NewBankAwarePolicy(), specsFor(mixedSet...))
		if err != nil {
			t.Fatal(err)
		}
		if observe {
			sys.EnableMetrics(nil)
		}
		if err := sys.Run(150_000); err != nil {
			t.Fatal(err)
		}
		sys.ResetStats()
		if err := sys.Run(300_000); err != nil {
			t.Fatal(err)
		}
		return sys.Result(mixedSet)
	}
	plain, observed := run(false), run(true)
	if plain.TotalL2Misses != observed.TotalL2Misses || plain.MeanCPI != observed.MeanCPI {
		t.Fatalf("observation changed outcomes: %d/%.6f vs %d/%.6f",
			plain.TotalL2Misses, plain.MeanCPI, observed.TotalL2Misses, observed.MeanCPI)
	}
}

// TestEnableMetricsSharedRegistry: a caller-supplied recorder (e.g. one
// serving a debug endpoint) is used as-is and sees the system's gauges.
func TestEnableMetricsSharedRegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := testConfig()
	sys, err := New(cfg, core.EqualPolicy{}, specsFor(mixedSet...))
	if err != nil {
		t.Fatal(err)
	}
	rec := sys.EnableMetrics(&metrics.Recorder{Registry: reg})
	if rec.Registry != reg {
		t.Fatal("EnableMetrics replaced the supplied registry")
	}
	if err := sys.Run(100_000); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap["dram.requests"] == 0 {
		t.Fatal("dram.requests gauge not visible through the shared registry")
	}
	if snap["cpu.core0.instructions"] == 0 {
		t.Fatal("cpu.core0.instructions gauge not visible")
	}
}
