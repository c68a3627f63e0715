package sim_test

import (
	"context"
	"testing"

	"bankaware/internal/core"
	"bankaware/internal/experiments"
	"bankaware/internal/metrics"
	"bankaware/internal/nuca"
	"bankaware/internal/sim"
)

// The observation invariants below are properties of sim.Accounting, which
// both engines drive, so each test runs once per fidelity: the detailed
// simulator and the fastsim interval model.

// forEachEngine runs body as one subtest per fidelity.
func forEachEngine(t *testing.T, body func(t *testing.T, f experiments.Fidelity)) {
	for _, f := range []experiments.Fidelity{experiments.FidelityDetailed, experiments.FidelityFast} {
		t.Run(string(f), func(t *testing.T) { body(t, f) })
	}
}

// observedEngine builds an engine at fidelity f with the observation layer
// attached and runs the standard protocol: warm-up, stats reset, measured
// phase. It returns the engine and its recorder.
func observedEngine(t *testing.T, f experiments.Fidelity, policy core.Policy, instr uint64) (experiments.Engine, *metrics.Recorder) {
	t.Helper()
	cfg := sim.TestConfig()
	cfg.EpochCycles = 200_000 // several epochs within a short test run
	sys, err := experiments.NewEngine(f, cfg, policy, sim.SpecsFor(sim.MixedSet...))
	if err != nil {
		t.Fatal(err)
	}
	rec := sys.EnableMetrics(nil)
	ctx := context.Background()
	if err := sys.RunContext(ctx, instr/2); err != nil {
		t.Fatal(err)
	}
	sys.ResetStats()
	if err := sys.RunContext(ctx, instr); err != nil {
		t.Fatal(err)
	}
	return sys, rec
}

// TestInvariantEpochMissesSumToTotals: the epoch time series is a complete
// decomposition of the measurement window — per core, the sample deltas
// must add up exactly to the run totals (accesses, misses, instructions).
func TestInvariantEpochMissesSumToTotals(t *testing.T) {
	forEachEngine(t, func(t *testing.T, f experiments.Fidelity) {
		sys, _ := observedEngine(t, f, core.NewBankAwarePolicy(), 400_000)
		rr := sys.RunReport("", sim.MixedSet)
		if len(rr.EpochSeries) < 2 {
			t.Fatalf("expected several epoch samples, got %d", len(rr.EpochSeries))
		}
		var sumMiss, sumAcc, sumInstr [nuca.NumCores]uint64
		for _, s := range rr.EpochSeries {
			for c, cs := range s.Cores {
				sumMiss[c] += cs.L2Misses
				sumAcc[c] += cs.L2Accesses
				sumInstr[c] += cs.Instructions
			}
		}
		var totalMiss uint64
		for c := 0; c < nuca.NumCores; c++ {
			ct := rr.Cores[c]
			if sumMiss[c] != ct.L2Misses {
				t.Errorf("core %d: epoch misses sum %d, total %d", c, sumMiss[c], ct.L2Misses)
			}
			if sumAcc[c] != ct.L2Accesses {
				t.Errorf("core %d: epoch accesses sum %d, total %d", c, sumAcc[c], ct.L2Accesses)
			}
			if sumInstr[c] != ct.Instructions {
				t.Errorf("core %d: epoch instructions sum %d, total %d", c, sumInstr[c], ct.Instructions)
			}
			totalMiss += sumMiss[c]
		}
		if totalMiss != rr.Totals.L2Misses {
			t.Errorf("epoch misses sum %d, run total %d", totalMiss, rr.Totals.L2Misses)
		}
	})
}

// TestRunReportFlushIdempotent: RunReport flushes the final partial window;
// exporting twice must not grow the series or change the totals.
func TestRunReportFlushIdempotent(t *testing.T) {
	forEachEngine(t, func(t *testing.T, f experiments.Fidelity) {
		sys, _ := observedEngine(t, f, core.EqualPolicy{}, 200_000)
		a := sys.RunReport("", sim.MixedSet)
		b := sys.RunReport("", sim.MixedSet)
		if len(a.EpochSeries) != len(b.EpochSeries) {
			t.Fatalf("series grew on re-export: %d then %d", len(a.EpochSeries), len(b.EpochSeries))
		}
		if a.Totals != b.Totals {
			t.Fatalf("totals changed on re-export: %+v vs %+v", a.Totals, b.Totals)
		}
	})
}

// TestPartitionEventsRecorded: under the dynamic policy the event log must
// hold the measurement window's initial allocation (epoch 0, all cores,
// no old assignment) and, with small epochs, at least one repartitioning.
func TestPartitionEventsRecorded(t *testing.T) {
	forEachEngine(t, func(t *testing.T, f experiments.Fidelity) {
		sys, rec := observedEngine(t, f, core.NewBankAwarePolicy(), 400_000)
		rr := sys.RunReport("", sim.MixedSet)
		initial := 0
		changes := 0
		for _, ev := range rr.PartitionEvents {
			if ev.Policy != "Bank-aware" {
				t.Fatalf("event policy %q", ev.Policy)
			}
			if ev.Epoch == 0 {
				initial++
				if ev.OldBanks != nil {
					t.Fatalf("initial event for core %d carries an old assignment", ev.Core)
				}
			} else {
				changes++
			}
		}
		if initial != nuca.NumCores {
			t.Fatalf("expected %d initial-allocation events, got %d", nuca.NumCores, initial)
		}
		if changes == 0 {
			t.Fatal("no partition-change events recorded under the dynamic policy")
		}
		if got := rec.Registry.Snapshot()["sim.epochs"]; got < 1 {
			t.Fatalf("sim.epochs gauge %v, want >= 1", got)
		}
	})
}
