package benchmarks

import (
	"context"
	"fmt"
	"math"
	"time"

	"bankaware/internal/core"
	"bankaware/internal/experiments"
	"bankaware/internal/fastsim"
	"bankaware/internal/sim"
	"bankaware/internal/trace"
)

// FidelityInstructions is the measured-phase budget per core of one
// differential run (the experiments layer prepends a warm-up of half
// this). The committed envelopes are measured at exactly this budget —
// both engines are deterministic, so the deltas are constants of the
// (config, budget) pair.
const FidelityInstructions = 300_000

// FidelityConfig is the golden measurement machine of the differential
// harness: the 1/16-scale config with short epochs so repartitioning
// happens inside the budget.
func FidelityConfig() sim.Config {
	cfg := experiments.ScaleModel.Config()
	cfg.EpochCycles = 200_000
	return cfg
}

// FidelityDelta is one homogeneous workload's fast-vs-detailed outcome.
type FidelityDelta struct {
	Workload string
	// Detailed / fast aggregate outcomes over 8 homogeneous cores.
	DetCPI, FastCPI float64
	DetMR, FastMR   float64
	// CPIErr is the relative CPI error, MRErr the absolute miss-ratio
	// error (fast minus detailed).
	CPIErr, MRErr float64
	// Envelope bounds the errors are graded against.
	CPIBound, MRBound float64
}

// MeasureHomogeneous runs 8 homogeneous copies of one catalog workload
// under the Equal policy at the given fidelity on the golden config and
// returns the measured-phase result.
func MeasureHomogeneous(ctx context.Context, name string, f experiments.Fidelity) (sim.Result, error) {
	workloads := make([]string, 8)
	for i := range workloads {
		workloads[i] = name
	}
	run, err := experiments.RunSetPolicyContext(ctx, FidelityConfig(), workloads,
		FidelityInstructions, 1, experiments.Options{Seed: 1, Fidelity: f})
	if err != nil {
		return sim.Result{}, fmt.Errorf("homogeneous %s at %s fidelity: %w", name, f, err)
	}
	return run.Result, nil
}

// FidelitySweep runs the full catalog differentially — every workload
// homogeneously under both engines — and grades each delta against the
// committed envelopes. The returned slice is in catalog order.
func FidelitySweep(ctx context.Context) ([]FidelityDelta, error) {
	env, err := fastsim.Envelopes()
	if err != nil {
		return nil, err
	}
	var out []FidelityDelta
	for _, name := range trace.CatalogNames() {
		det, err := MeasureHomogeneous(ctx, name, experiments.FidelityDetailed)
		if err != nil {
			return nil, err
		}
		fast, err := MeasureHomogeneous(ctx, name, experiments.FidelityFast)
		if err != nil {
			return nil, err
		}
		d := FidelityDelta{
			Workload: name,
			DetCPI:   det.MeanCPI, FastCPI: fast.MeanCPI,
			DetMR: det.MissRatio, FastMR: fast.MissRatio,
			CPIErr: (fast.MeanCPI - det.MeanCPI) / det.MeanCPI,
			MRErr:  fast.MissRatio - det.MissRatio,
		}
		if bound, ok := env.Homogeneous[name]; ok {
			d.CPIBound, d.MRBound = bound.CPI, bound.MissRatio
		}
		out = append(out, d)
	}
	return out, nil
}

// FidelityCampaignDeltas runs the Figs. 8/9 grid under both engines and
// returns the worst absolute deviation of the per-set relative-miss and
// relative-CPI ratios — the quantities the paper plots.
func FidelityCampaignDeltas(ctx context.Context) (relMiss, relCPI float64, err error) {
	det, err := experiments.RunFig8Fig9Context(ctx, experiments.ScaleModel, FidelityInstructions,
		experiments.Options{Seed: 1, Workers: 4})
	if err != nil {
		return 0, 0, fmt.Errorf("detailed campaign: %w", err)
	}
	fast, err := experiments.RunFig8Fig9Context(ctx, experiments.ScaleModel, FidelityInstructions,
		experiments.Options{Seed: 1, Workers: 4, Fidelity: experiments.FidelityFast})
	if err != nil {
		return 0, 0, fmt.Errorf("fast campaign: %w", err)
	}
	for i := range det.Sets {
		d, f := det.Sets[i], fast.Sets[i]
		relMiss = math.Max(relMiss, math.Abs(f.RelMissEqual-d.RelMissEqual))
		relMiss = math.Max(relMiss, math.Abs(f.RelMissBank-d.RelMissBank))
		relCPI = math.Max(relCPI, math.Abs(f.RelCPIEqual-d.RelCPIEqual))
		relCPI = math.Max(relCPI, math.Abs(f.RelCPIBank-d.RelCPIBank))
	}
	return relMiss, relCPI, nil
}

// FidelitySpeedup times both engines head-to-head on Table III set 1 at
// the given per-core budget with warm profile caches (the steady state a
// campaign amortises to) and returns the wall-clock ratio.
func FidelitySpeedup(ctx context.Context, instructions uint64) (detailed, fast time.Duration, err error) {
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
