package sim

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"bankaware/internal/core"
	"bankaware/internal/faults"
	"bankaware/internal/metrics"
	"bankaware/internal/nuca"
)

// degradedPlan fails a Center bank at epoch 0 and layers the other fault
// classes on top, so one run exercises every injection path.
func degradedPlan() *faults.Plan {
	return &faults.Plan{Seed: 3, Events: []faults.Event{
		{Epoch: 0, Kind: faults.BankFail, Bank: 10},
		{Epoch: 0, Kind: faults.BankSlow, Bank: 2, ExtraCycles: 15},
		{Epoch: 1, Kind: faults.DRAMSpike, ExtraCycles: 80, Duration: 1},
		{Epoch: 1, Kind: faults.CurveNoise, Amplitude: 0.1, Duration: 1},
	}}
}

// runDegraded executes a short observed run under the plan and returns the
// system plus its report bytes.
func runDegraded(t *testing.T, policy core.Policy, plan *faults.Plan, instructions uint64) (*System, []byte) {
	t.Helper()
	cfg := testConfig()
	cfg.EpochCycles = 400_000 // several epochs inside the short run
	cfg.Faults = plan
	sys, err := New(cfg, policy, specsFor(mixedSet...))
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableMetrics(nil)
	if err := sys.Run(instructions); err != nil {
		t.Fatal(err)
	}
	rep := metrics.NewReport("fault-test")
	rep.Runs = append(rep.Runs, sys.RunReport("", mixedSet))
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return sys, buf.Bytes()
}

// TestDegradedRunReportByteStable is the acceptance criterion: a fixed-seed
// degraded run produces a byte-stable report that carries the fault events,
// and the installed allocation never touches the failed bank.
func TestDegradedRunReportByteStable(t *testing.T) {
	sys1, rep1 := runDegraded(t, core.NewBankAwarePolicy(), degradedPlan(), 200_000)
	_, rep2 := runDegraded(t, core.NewBankAwarePolicy(), degradedPlan(), 200_000)
	if !bytes.Equal(rep1, rep2) {
		t.Fatal("degraded run report not byte-stable across reruns")
	}
	if !bytes.Contains(rep1, []byte(`"fault_events"`)) ||
		!bytes.Contains(rep1, []byte(`"bank-fail"`)) {
		t.Fatal("report does not carry the injected fault events")
	}

	alloc := sys1.Allocation()
	if !alloc.Failed.Has(10) {
		t.Fatalf("allocation does not mark bank 10 failed: %v", alloc.Failed)
	}
	total := 0
	for c := 0; c < nuca.NumCores; c++ {
		total += alloc.Ways[c]
		if alloc.WaysIn(c, 10) != 0 {
			t.Fatalf("core %d allocated in failed bank 10\n%s", c, alloc)
		}
	}
	if want := alloc.Failed.SurvivingWays(); total != want {
		t.Fatalf("allocation sums to %d ways, want %d", total, want)
	}
}

// TestHealthyRunUnchangedByNilPlan pins backward compatibility: a nil and
// an empty plan must both reproduce the healthy golden behaviour exactly.
func TestHealthyRunUnchangedByNilPlan(t *testing.T) {
	run := func(plan *faults.Plan) Result {
		cfg := testConfig()
		cfg.Faults = plan
		sys, err := New(cfg, core.EqualPolicy{}, specsFor(mixedSet...))
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Run(100_000); err != nil {
			t.Fatal(err)
		}
		return sys.Result(mixedSet)
	}
	base := run(nil)
	empty := run(&faults.Plan{Seed: 99})
	if base.TotalL2Accesses != empty.TotalL2Accesses || base.TotalL2Misses != empty.TotalL2Misses {
		t.Fatalf("empty plan changed the run: %d/%d vs %d/%d",
			empty.TotalL2Accesses, empty.TotalL2Misses, base.TotalL2Accesses, base.TotalL2Misses)
	}
	for c := range base.Cores {
		if base.Cores[c] != empty.Cores[c] {
			t.Fatalf("core %d diverged under the empty plan", c)
		}
	}
}

// TestBankFailureDrainsOccupancy: once a bank fails mid-run its contents
// are invalidated and nothing is allocated into it again, so the observed
// occupancy drops to zero for the rest of the run.
func TestBankFailureDrainsOccupancy(t *testing.T) {
	const failedBank = 12
	plan := &faults.Plan{Events: []faults.Event{
		{Epoch: 2, Kind: faults.BankFail, Bank: failedBank},
	}}
	cfg := testConfig()
	cfg.EpochCycles = 300_000
	cfg.Faults = plan
	sys, err := New(cfg, core.NewBankAwarePolicy(), specsFor(mixedSet...))
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableMetrics(nil)
	if err := sys.Run(300_000); err != nil {
		t.Fatal(err)
	}
	if sys.Epochs() < 4 {
		t.Fatalf("run too short to cross the failure epoch: %d epochs", sys.Epochs())
	}
	rr := sys.RunReport("", mixedSet)
	if len(rr.EpochSeries) == 0 {
		t.Fatal("no epoch samples recorded")
	}
	sawOccupied := false
	last := rr.EpochSeries[len(rr.EpochSeries)-1]
	for _, s := range rr.EpochSeries {
		if s.BankOccupancy[failedBank] > 0 {
			sawOccupied = true
		}
	}
	if !sawOccupied {
		t.Fatalf("bank %d never held lines before the failure", failedBank)
	}
	if last.BankOccupancy[failedBank] != 0 {
		t.Fatalf("failed bank %d still holds %d lines at the end of the run",
			failedBank, last.BankOccupancy[failedBank])
	}
	if !sys.Allocation().Failed.Has(failedBank) {
		t.Fatal("final allocation does not mark the bank failed")
	}
}

// TestHashedBaselineRemapsOntoSurvivors: the shared (no-partition) baseline
// keeps running under a bank failure by hashing over the surviving banks.
func TestHashedBaselineRemapsOntoSurvivors(t *testing.T) {
	plan := &faults.Plan{Events: []faults.Event{
		{Epoch: 0, Kind: faults.BankFail, Bank: 5},
	}}
	cfg := testConfig()
	cfg.EpochCycles = 400_000
	cfg.Faults = plan
	sys, err := New(cfg, core.NoPartitionPolicy{}, specsFor(mixedSet...))
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableMetrics(nil)
	if err := sys.Run(150_000); err != nil {
		t.Fatal(err)
	}
	rr := sys.RunReport("", mixedSet)
	for _, s := range rr.EpochSeries {
		if s.BankOccupancy[5] != 0 {
			t.Fatalf("hashed baseline placed %d lines in failed bank 5", s.BankOccupancy[5])
		}
	}
	if rr.Totals.L2Accesses == 0 {
		t.Fatal("degenerate hashed run")
	}
}

// rigidPolicy implements only the basic Policy interface — no degraded path.
type rigidPolicy struct{}

func (rigidPolicy) Name() string { return "rigid" }
func (rigidPolicy) Allocate(curves []core.MissCurve) (*core.Allocation, error) {
	return core.EqualAllocation(0)
}

// TestFaultRequiresDegradedPolicy: a policy without a degraded path cannot
// re-partition around failed banks, and the run says so instead of silently
// assigning dead capacity.
func TestFaultRequiresDegradedPolicy(t *testing.T) {
	plan := &faults.Plan{Events: []faults.Event{{Epoch: 0, Kind: faults.BankFail, Bank: 0}}}
	cfg := testConfig()
	cfg.Faults = plan
	_, err := New(cfg, rigidPolicy{}, specsFor(mixedSet...))
	if err == nil {
		t.Fatal("non-degradable policy accepted a fault plan")
	}
	if !strings.Contains(err.Error(), "cannot re-partition") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// pollLimitedCtx reports itself cancelled after a fixed number of Err()
// polls — a deterministic stand-in for a user killing the run mid-flight
// (RunContext polls Err() on its single goroutine, so no races).
type pollLimitedCtx struct {
	context.Context
	polls int
}

func (c *pollLimitedCtx) Err() error {
	if c.polls--; c.polls <= 0 {
		return context.Canceled
	}
	return nil
}

// TestCancellationLeavesRecorderConsistent cancels a run mid-flight: the
// error must be the context's, and the recorder must still decompose —
// the epoch samples (including the final partial window RunReport flushes)
// sum exactly to the reported totals.
func TestCancellationLeavesRecorderConsistent(t *testing.T) {
	cfg := testConfig()
	cfg.EpochCycles = 200_000
	sys, err := New(cfg, core.NewBankAwarePolicy(), specsFor(mixedSet...))
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableMetrics(nil)
	ctx := &pollLimitedCtx{Context: context.Background(), polls: 40}
	err = sys.RunContext(ctx, 5_000_000)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if sys.Epochs() < 2 {
		t.Fatalf("cancellation landed before any repartition: %d epochs", sys.Epochs())
	}
	rr := sys.RunReport("", mixedSet)
	for c := range rr.Cores {
		var instr, misses uint64
		var accesses uint64
		for _, s := range rr.EpochSeries {
			instr += s.Cores[c].Instructions
			accesses += s.Cores[c].L2Accesses
			misses += s.Cores[c].L2Misses
		}
		if instr != rr.Cores[c].Instructions || accesses != rr.Cores[c].L2Accesses || misses != rr.Cores[c].L2Misses {
			t.Fatalf("core %d: epoch series (%d instr, %d acc, %d miss) does not decompose totals (%d, %d, %d)",
				c, instr, accesses, misses,
				rr.Cores[c].Instructions, rr.Cores[c].L2Accesses, rr.Cores[c].L2Misses)
		}
	}
}

// TestFaultPlanValidatedByConfig: sim.Config.Validate rejects broken plans.
func TestFaultPlanValidatedByConfig(t *testing.T) {
	cfg := testConfig()
	cfg.Faults = &faults.Plan{Events: []faults.Event{{Epoch: 0, Kind: "bogus"}}}
	if err := cfg.Validate(); err == nil {
		t.Fatal("config with invalid fault plan validated")
	}
}
