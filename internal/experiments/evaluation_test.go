package experiments

import (
	"bytes"
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"bankaware/internal/core"
	"bankaware/internal/fastsim"
	"bankaware/internal/metrics"
	"bankaware/internal/nuca"
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

// RunSetContext's units share one evaluation's tapes (detailed) or scope
// (fast); the report bytes must equal those of three solo units at every
// worker and lane count.
func TestSharedSetMatchesSoloUnits(t *testing.T) {
	cfg := ScaleModel.Config()
	cfg.EpochCycles = 200_000
	workloads := TableIIISets[1][:]
	for _, tc := range []struct {
		fidelity     Fidelity
		instructions uint64
	}{
		{FidelityDetailed, 200_000},
		{FidelityFast, ScaleModel.DefaultInstructions()},
	} {
		if tc.fidelity == FidelityDetailed && testing.Short() {
			continue // detailed simulation in -short mode
		}
		opt := Options{Observe: true, Fidelity: tc.fidelity}
		solo, err := AssembleSetResult(2, workloads, soloUnits(t, cfg, [][]string{workloads}, tc.instructions, opt), true, tc.fidelity)
		if err != nil {
			t.Fatal(err)
		}
		want := reportBytes(t, solo.Report())
		for _, workers := range []int{1, 3} {
			for _, simWorkers := range []int{0, 4} {
				opt.Workers, opt.SimWorkers = workers, simWorkers
				r, err := RunSetContext(context.Background(), cfg, 2, workloads, tc.instructions, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(reportBytes(t, r.Report()), want) {
					t.Errorf("%s: workers %d, sim workers %d: report differs from solo units", tc.fidelity, workers, simWorkers)
				}
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

	solo, err := NewSetEvaluation(ScaleModel.Config(), TableIIISets[0][:], instructions, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if solo.tapes != nil || solo.scope != nil {
		t.Error("a single-unit evaluation shares tapes or a scope")
	}
}

// The fast units of one set evaluation share one scope: each distinct
// replay window runs once, so the scope runs fewer windows than the units
// asked for between them (the sum of their fastsim.replays gauges), and
// each core's stream is drawn once, exactly as far as the furthest solo
// unit draws it. This fails if the units stop sharing (the evaluation's
// scope then runs and draws nothing).
func TestFastSetUnitsShareOneScope(t *testing.T) {
	workloads := TableIIISets[0][:]
	opt := Options{Fidelity: FidelityFast, Observe: true, Workers: 3}
	e, err := NewSetEvaluation(ScaleModel.Config(), workloads, ScaleModel.DefaultInstructions(), SetPolicies, opt)
	if err != nil {
		t.Fatal(err)
	}
	if e.tapes != nil || e.scope == nil {
		t.Fatal("a fast evaluation of three units opened no scope, or tapes")
	}
	runs, err := runner.Map(context.Background(), opt.runnerConfig(), SetPolicies, e.RunPolicy)
	if err != nil {
		t.Fatal(err)
	}
	asked, most := 0, 0
	for _, run := range runs {
		n := int(run.Report.Metrics["fastsim.replays"])
		asked += n
		most = max(most, n)
	}
	if got := e.scope.Replays(); got < most || got >= asked {
		t.Errorf("scope replayed %d windows; its units asked for %d between them, %d at most one", got, asked, most)
	}
	var soloDrawn [nuca.NumCores]int
	for p, proto := range setPolicyPrototypes() {
		sc, err := fastsim.NewScope(e.cfg, e.specs)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := sc.NewSystem(core.ClonePolicy(proto))
		if err != nil {
			t.Fatal(err)
		}
		run, err := RunEngine(context.Background(), sys, workloads, e.instructions, 0, metrics.NewRecorder(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sc.Replays(), int(run.Report.Metrics["fastsim.replays"]); got != want {
			t.Errorf("%s: solo scope replayed %d windows, its unit asked for %d", proto.Name(), got, want)
		}
		if !reflect.DeepEqual(run, runs[p]) {
			t.Errorf("%s: shared-scope unit differs from its solo run", proto.Name())
		}
		for c := range soloDrawn {
			soloDrawn[c] = max(soloDrawn[c], sc.Drawn(c))
		}
	}
	for c, want := range soloDrawn {
		if got := e.scope.Drawn(c); got != want {
			t.Errorf("core %d: shared scope drew %d events, the furthest solo unit %d", c, got, want)
		}
	}
}

// A campaign evaluation opens one evaluation per set, shares it among the
// set's planned units and drops it once they have all succeeded; a unit
// outside the plan runs on an evaluation of its own.
func TestCampaignEvaluationSharesAndReleasesSets(t *testing.T) {
	if testing.Short() {
		t.Skip("detailed simulation in -short mode")
	}
	ctx := context.Background()
	c := NewCampaignEvaluation(ScaleModel, 60_000, []int{1, 2, 3, 4, 5}, Options{})
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
		t.Fatal("set 1 still open after its last planned unit")
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
		t.Fatalf("%d sets still open after the planned units finished", len(c.sets))
	}
	run(0)
	if len(c.sets) != 0 {
		t.Fatal("a unit outside the plan opened a shared set")
	}
	if _, err := c.RunUnit(ctx, CampaignUnits); err == nil {
		t.Fatal("unit outside the campaign accepted")
	}
}

// A range resumed from a journal plans only the units the journal lacks:
// with two of set 1's three units journaled, the third runs with no tapes
// and leaves no set open, and set 2, all journaled, is never opened.
func TestResumedRangeSharesOnlyPendingUnits(t *testing.T) {
	if testing.Short() {
		t.Skip("detailed simulation in -short mode")
	}
	ctx := context.Background()
	journal, err := runner.OpenJournal(filepath.Join(t.TempDir(), "units.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	for _, u := range []int{0, 1, 3, 4, 5} {
		if err := journal.Record(u, PolicyRun{}); err != nil {
			t.Fatal(err)
		}
	}
	c := NewCampaignEvaluation(ScaleModel, 60_000, journal.Lacks(0, 6), Options{})
	var ran []int
	_, err = runner.Map(ctx, runner.Config{Workers: 1, Journal: journal}, 6, func(ctx context.Context, u int) (PolicyRun, error) {
		ran = append(ran, u)
		e, err := c.open(u/SetPolicies, c.planned[u])
		if err != nil {
			return PolicyRun{}, err
		}
		if e.tapes != nil || e.scope != nil {
			t.Errorf("unit %d, the last of its set, shares tapes or a scope", u)
		}
		return c.RunUnit(ctx, u)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ran, []int{2}) {
		t.Fatalf("the resumed range ran units %v, want [2]", ran)
	}
	if len(c.sets) != 0 {
		t.Fatalf("%d sets still open after the resumed range finished", len(c.sets))
	}
}
