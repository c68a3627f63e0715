package experiments

import (
	"bytes"
	"context"
	"testing"

	"bankaware/internal/metrics"
	"bankaware/internal/runner"
	"bankaware/internal/sim"
	"bankaware/internal/trace"
)

// reportBytes renders a campaign report as the service and the CLIs emit
// it.
func reportBytes(t *testing.T, rep *metrics.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// soloUnits runs each (set, policy) unit on its own through
// RunSetPolicyContext, the path with no shared streams.
func soloUnits(t *testing.T, cfg sim.Config, sets [][]string, instructions uint64, opt Options) []PolicyRun {
	t.Helper()
	var runs []PolicyRun
	for _, workloads := range sets {
		for p := 0; p < SetPolicies; p++ {
			run, err := RunSetPolicyContext(context.Background(), cfg, workloads, instructions, p, opt)
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, run)
		}
	}
	return runs
}

// RunSetContext's units share one evaluation's tapes; the report bytes
// must equal those of three solo units at every worker and lane count.
func TestSharedSetMatchesSoloUnits(t *testing.T) {
	if testing.Short() {
		t.Skip("detailed simulation in -short mode")
	}
	cfg := ScaleModel.Config()
	cfg.EpochCycles = 200_000
	const instructions = 200_000
	workloads := TableIIISets[1][:]
	solo, err := AssembleSetResult(2, workloads, soloUnits(t, cfg, [][]string{workloads}, instructions, Options{Observe: true}), true, "")
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, solo.Report())
	for _, workers := range []int{1, 3} {
		for _, simWorkers := range []int{0, 4} {
			r, err := RunSetContext(context.Background(), cfg, 2, workloads, instructions,
				Options{Workers: workers, SimWorkers: simWorkers, Observe: true})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(reportBytes(t, r.Report()), want) {
				t.Errorf("workers %d, sim workers %d: report differs from solo units", workers, simWorkers)
			}
		}
	}
}

// A short Figs. 8/9 campaign, one shared evaluation per set, equals the 24
// solo units assembled.
func TestSharedCampaignMatchesSoloUnits(t *testing.T) {
	if testing.Short() {
		t.Skip("detailed simulation in -short mode")
	}
	const instructions = 80_000
	opt := Options{Observe: true}
	sets := make([][]string, len(TableIIISets))
	for i := range TableIIISets {
		sets[i] = TableIIISets[i][:]
	}
	solo, err := AssembleFig8Fig9(soloUnits(t, ScaleModel.Config(), sets, instructions, opt), true, "")
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 2
	shared, err := RunFig8Fig9Context(context.Background(), ScaleModel, instructions, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportBytes(t, shared.Report()), reportBytes(t, solo.Report())) {
		t.Fatal("campaign report differs from solo units")
	}
}

// oneUnitTape records core stream g as far as one unit reads it: until
// the core has retired instructions.
func oneUnitTape(g *trace.Generator, instructions uint64) *trace.Tape {
	tape := trace.NewTape(g)
	r := tape.Reader()
	for retired := uint64(0); retired < instructions; {
		retired += uint64(r.Next().Gap) + 1
	}
	return tape
}

// The units of one set evaluation generate each core's stream once: the
// tape holds what one unit reads, and every unit reads all of it. This
// fails if the units stop sharing (a unit that generates its own stream
// reads nothing from the tape) or if the tape records more than one unit's
// worth.
func TestSetUnitsShareOneGeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("detailed simulation in -short mode")
	}
	const instructions = 100_000
	e, err := NewSetEvaluation(ScaleModel.Config(), TableIIISets[0][:], instructions, SetPolicies, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.Map(context.Background(), runner.Config{Workers: 3}, SetPolicies, e.RunPolicy); err != nil {
		t.Fatal(err)
	}
	gens, err := sim.Generators(e.cfg, e.specs)
	if err != nil {
		t.Fatal(err)
	}
	for c, g := range gens {
		tape := e.tapes[c]
		if got, want := tape.Len(), oneUnitTape(g, instructions).Len(); got != want {
			t.Errorf("core %d: tape recorded %d events, one unit's reading records %d", c, got, want)
		}
		if got, want := tape.Served(), SetPolicies*tape.Len(); got != want {
			t.Errorf("core %d: units read %d recorded events, want %d (every unit, every chunk)", c, got, want)
		}
	}

	fast, err := NewSetEvaluation(ScaleModel.Config(), TableIIISets[0][:], instructions, SetPolicies, Options{Fidelity: FidelityFast})
	if err != nil {
		t.Fatal(err)
	}
	solo, err := NewSetEvaluation(ScaleModel.Config(), TableIIISets[0][:], instructions, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fast.tapes != nil || solo.tapes != nil {
		t.Error("a fast or single-unit evaluation built tapes")
	}
}

// A campaign range opens one evaluation per set, shares it among the
// set's units in the range and drops it once they have all succeeded.
func TestCampaignEvaluationSharesAndReleasesSets(t *testing.T) {
	if testing.Short() {
		t.Skip("detailed simulation in -short mode")
	}
	ctx := context.Background()
	c := NewCampaignEvaluation(ScaleModel, 60_000, 1, 6, Options{})
	run := func(unit int) {
		t.Helper()
		if _, err := c.RunUnit(ctx, unit); err != nil {
			t.Fatal(err)
		}
	}
	run(1)
	first := c.sets[0]
	if first == nil || first.left != 1 || first.eval.tapes == nil {
		t.Fatalf("set 1 after one of its two units: %+v", first)
	}
	run(2)
	if _, open := c.sets[0]; open {
		t.Fatal("set 1 still open after its last unit in the range")
	}
	for core, tape := range first.eval.tapes {
		if tape.Served() != 2*tape.Len() {
			t.Errorf("set 1 core %d: units read %d of %d recorded events twice over", core, tape.Served(), tape.Len())
		}
	}
	for u := 3; u < 6; u++ {
		run(u)
	}
	if len(c.sets) != 0 {
		t.Fatalf("%d sets still open after the range finished", len(c.sets))
	}
	if _, err := c.RunUnit(ctx, 0); err == nil {
		t.Fatal("unit outside the range accepted")
	}
}
