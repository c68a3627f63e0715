package experiments

import (
	"context"
	"fmt"
	"math"

	"bankaware/internal/cache"
	"bankaware/internal/montecarlo"
	"bankaware/internal/msa"
	"bankaware/internal/sim"
	"bankaware/internal/stats"
	"bankaware/internal/trace"
)

// Access budgets of the profiling experiments: the -accesses defaults of
// `bankaware profile` (Figs. 2 and 3) and `bankaware sweep` (Fig. 4 and the
// profiler ablation), and so the budgets EXPERIMENTS.md reports.
const (
	ProfileAccesses = 500_000
	SweepAccesses   = 200_000
)

// ProfilerBudget is one hardware budget of the profiler ablation: one in
// Sampling sets profiled with TagBits-bit partial tags (0 = full tags),
// its worst miss-ratio-curve error against the exact profile, and one
// profiler's storage.
type ProfilerBudget struct {
	Sampling, TagBits int
	MaxError, Kbits   float64
}

// ProfilerAccuracy sweeps set sampling and partial tag width against the
// exact profile of bzip2 — the paper's "within 5% with 12-bit tags and
// 1-in-32 sampling" claim.
func ProfilerAccuracy(ctx context.Context, accesses int) ([]ProfilerBudget, error) {
	const sets = 256
	spec := trace.MustSpec("bzip2")
	p, err := profileStream(ctx, spec, msa.Config{Sets: sets, MaxWays: 72}, stats.NewRNG(9, 9), sets, accesses)
	if err != nil {
		return nil, err
	}
	exact := p.MissRatioCurve()
	var rows []ProfilerBudget
	for _, sampleLog2 := range []int{0, 3, 5, 6} {
		for _, tagBits := range []int{8, 12, 16, 0} {
			p, err := profileStream(ctx, spec, msa.Config{Sets: sets, MaxWays: 72, SampleLog2: sampleLog2, PartialTagBits: tagBits}, stats.NewRNG(9, 9), sets, accesses)
			if err != nil {
				return nil, err
			}
			got, maxErr := p.MissRatioCurve(), 0.0
			for w := range got {
				if e := math.Abs(got[w] - exact[w]); e > maxErr {
					maxErr = e
				}
			}
			oc := msa.BaselineOverhead()
			oc.SampledSets = sets >> sampleLog2
			oc.TagBits = tagBits
			if tagBits == 0 {
				oc.TagBits = 34 // full tag for the baseline address space
			}
			rows = append(rows, ProfilerBudget{1 << sampleLog2, tagBits, maxErr, msa.Kbits(msa.ComputeOverhead(oc).TotalBits())})
		}
	}
	return rows, nil
}

// SetVariant is one machine variant of a set ablation: its label and the
// Table III set evaluated under it.
type SetVariant struct {
	Label  string
	Result *SetResult
}

// setAblation evaluates Table III set set under each labelled variant of
// the model machine; vary applies variant i to the configuration.
func setAblation(ctx context.Context, opt Options, set int, instructions uint64, labels []string, vary func(i int, cfg *sim.Config)) ([]SetVariant, error) {
	out := make([]SetVariant, len(labels))
	for i, label := range labels {
		cfg := ScaleModel.Config()
		vary(i, &cfg)
		r, err := RunSetContext(ctx, cfg, set, TableIIISets[set-1][:], instructions, opt)
		if err != nil {
			return nil, err
		}
		out[i] = SetVariant{label, r}
	}
	return out, nil
}

// EpochAblation sweeps the repartitioning period on Table III set 6,
// labelling each variant with its epoch length in cycles.
func EpochAblation(ctx context.Context, opt Options) ([]SetVariant, error) {
	cycles := []int64{200_000, 750_000, 1_500_000, 6_000_000}
	labels := make([]string, len(cycles))
	for i, c := range cycles {
		labels[i] = fmt.Sprint(c)
	}
	return setAblation(ctx, opt, 6, 2_000_000, labels, func(i int, cfg *sim.Config) { cfg.EpochCycles = cycles[i] })
}

// ReplacementAblation compares true-LRU L2 banks against tree pseudo-LRU
// on Table III set 5.
func ReplacementAblation(ctx context.Context, opt Options) ([]SetVariant, error) {
	policies := []cache.ReplacementPolicy{cache.LRU, cache.TreePLRU}
	return setAblation(ctx, opt, 5, 1_500_000, []string{"LRU", "TreePLRU"}, func(i int, cfg *sim.Config) { cfg.L2Replacement = policies[i] })
}

// LookupAblation compares lazy way-ownership enforcement (hits anywhere,
// the UCP/CQoS behaviour) against strict own-ways-only lookup on Table III
// set 1.
func LookupAblation(ctx context.Context, opt Options) ([]SetVariant, error) {
	return setAblation(ctx, opt, 1, 1_500_000, []string{"lazy", "strict"}, func(i int, cfg *sim.Config) { cfg.L2StrictLookup = i == 1 })
}

// CapLimit is one per-core capacity cap of the cap ablation and the Monte
// Carlo mean ratios both allocators reach under it.
type CapLimit struct {
	Ways                                      int
	MeanUnrestrictedRatio, MeanBankAwareRatio float64
}

// CapAblation sweeps the per-core capacity cap of both allocators in the
// Fig. 7 Monte Carlo projection (the paper caps at 9/16, 72 ways).
func CapAblation(ctx context.Context, opt Options) ([]CapLimit, error) {
	var rows []CapLimit
	for _, ways := range []int{32, 48, 72, 128} {
		cfg := montecarlo.DefaultConfig()
		cfg.Trials, cfg.Seed = 300, 7
		cfg.Unrestricted.MaxCoreWays, cfg.BankAware.MaxCoreWays = ways, ways
		res, err := montecarlo.RunContext(ctx, cfg, montecarlo.Options{Workers: opt.Workers, Progress: opt.Progress, Faults: opt.Faults})
		if err != nil {
			return nil, err
		}
		rows = append(rows, CapLimit{ways, res.MeanUnrestrictedRatio, res.MeanBankAwareRatio})
	}
	return rows, nil
}
