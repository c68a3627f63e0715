// Package montecarlo implements the paper's comparative Monte Carlo
// evaluation (Section IV.A, Fig. 7). The space of 8-core workload mixes
// drawn from 26 SPEC components is ~14 million combinations — far too many
// to simulate — so, exactly as the paper does, policies are compared on
// MSA-projected miss counts: draw 8 workloads with repetition, run the
// Unrestricted and Bank-aware partitioning algorithms on their miss curves,
// and compare the projected total misses against the static even split
// (16 ways per core).
package montecarlo

import (
	"context"
	"fmt"
	"sort"

	"bankaware/internal/core"
	"bankaware/internal/faults"
	"bankaware/internal/msa"
	"bankaware/internal/nuca"
	"bankaware/internal/runner"
	"bankaware/internal/stats"
	"bankaware/internal/trace"
)

// Config parametrises the experiment.
type Config struct {
	// Trials is the number of random workload mixes (1000 in the paper).
	Trials int
	// Seed drives the workload draws.
	Seed uint64
	// Unrestricted and BankAware carry the allocator parameters.
	Unrestricted core.UnrestrictedConfig
	BankAware    core.BankAwareConfig
	// Workloads is the pool to draw from; nil selects the full catalog.
	Workloads []trace.Spec
}

// DefaultConfig reproduces the paper's experiment.
func DefaultConfig() Config {
	return Config{
		Trials:       1000,
		Seed:         2009, // the venue year; any fixed seed reproduces
		Unrestricted: core.DefaultUnrestricted(),
		BankAware:    core.DefaultBankAware(),
	}
}

// Trial is one random mix's outcome. Ratios are relative to the even
// split's projected misses (1.0 = no reduction, 0 = all misses removed),
// the y-axis of Fig. 7.
type Trial struct {
	Workloads         [nuca.NumCores]string
	EqualMisses       float64
	UnrestrictedRatio float64
	BankAwareRatio    float64
}

// Results aggregates the experiment, with trials sorted by the Unrestricted
// ratio like the paper's figure ("sorted the 1000 results with respect to
// the miss rate reduction of the Unrestricted scheme").
type Results struct {
	Trials                []Trial
	MeanUnrestrictedRatio float64
	MeanBankAwareRatio    float64
}

// Options tunes how the experiment executes without affecting what it
// computes: results are bit-identical for every worker count, with or
// without a journal, resumed or not.
type Options struct {
	// Workers bounds the fan-out; zero selects GOMAXPROCS.
	Workers int
	// Progress receives engine events for live progress reporting.
	Progress runner.ProgressFunc
	// Journal checkpoints completed trials so a killed campaign resumes
	// where it stopped; a resumed campaign's Results are byte-identical to
	// an uninterrupted run with the same Config.
	Journal *runner.Journal
	// Faults degrades every trial with the plan's epoch-0 state: failed
	// banks shrink the capacity all three allocators distribute (the even
	// split included), and curve noise perturbs the curves the dynamic
	// allocators see — projected misses are still evaluated on the true
	// curves, so the ratios measure what imperfect profiling costs.
	Faults *faults.Plan
}

// Campaign is the deterministic up-front state every trial derives from:
// the workload pool with projected miss curves, the serially drawn mixes
// for every trial, and the (possibly degraded) even-split baseline. Because
// it depends only on (Config, fault plan) it is identical on every machine
// that prepares it — the property that lets a campaign shard across a fleet
// with any trial→worker placement and still merge byte-identically.
type Campaign struct {
	cfg       Config
	faults    *faults.Plan
	pool      []trace.Spec
	curves    []core.MissCurve
	mixes     [][nuca.NumCores]int
	snap      faults.Snapshot
	equalWays []int
}

// NewCampaign validates the config and computes the shared trial inputs.
// plan, when non-nil, degrades every trial as Options.Faults describes.
func NewCampaign(cfg Config, plan *faults.Plan) (*Campaign, error) {
	if cfg.Trials < 1 {
		return nil, fmt.Errorf("montecarlo: trials must be positive, got %d", cfg.Trials)
	}
	pool := cfg.Workloads
	if pool == nil {
		pool = trace.Catalog()
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("montecarlo: empty workload pool")
	}
	// Pre-compute each workload's projected miss curve. Miss counts are
	// the miss-ratio curve scaled by the workload's access intensity, so
	// that (as in the paper's MSA data, which counts real accesses) a
	// memory-hungry workload weighs more than a compute-bound one.
	curves := make([]core.MissCurve, len(pool))
	for i, s := range pool {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		ratios := s.MissCurve(trace.MaxWays)
		c := make(core.MissCurve, len(ratios))
		weight := s.MemPerKI
		if weight <= 0 {
			weight = 1
		}
		for w, r := range ratios {
			c[w] = r * weight
		}
		curves[i] = c
	}

	// Draw every trial's mix serially from the seeded RNG. This pins the
	// draw sequence to the seed alone (identical to the historical serial
	// implementation) and leaves only deterministic allocator math to the
	// parallel section.
	rng := stats.NewRNG(cfg.Seed, cfg.Seed^0xa5a5a5a5a5a5a5a5)
	mixes := make([][nuca.NumCores]int, cfg.Trials)
	for t := range mixes {
		for c := 0; c < nuca.NumCores; c++ {
			mixes[t][c] = rng.IntN(len(pool))
		}
	}

	snap := plan.At(0)
	equalWays := make([]int, nuca.NumCores)
	for i := range equalWays {
		if snap.Failed != 0 {
			equalWays[i] = snap.Failed.SurvivingWays() / nuca.NumCores
		} else {
			equalWays[i] = cfg.Unrestricted.TotalWays / nuca.NumCores
		}
	}
	return &Campaign{
		cfg: cfg, faults: plan, pool: pool, curves: curves,
		mixes: mixes, snap: snap, equalWays: equalWays,
	}, nil
}

// Trial computes trial t of the campaign, 0 <= t < Config.Trials. Pure in
// (campaign, t): identical on every worker that executes it, so trials
// computed anywhere assemble into the Results RunContext returns.
func (p *Campaign) Trial(t int) (Trial, error) {
	mix := make([]core.MissCurve, nuca.NumCores)
	var tr Trial
	for c, k := range p.mixes[t] {
		mix[c] = p.curves[k]
		tr.Workloads[c] = p.pool[k].Name
	}
	// The allocators decide on `seen` (possibly noisy) curves; the
	// projected misses are evaluated on the true ones. The noise RNG
	// derives from (plan seed, trial, core) so resumed or reordered
	// campaigns draw identical perturbations.
	seen := mix
	if p.snap.NoiseAmplitude > 0 {
		seen = make([]core.MissCurve, nuca.NumCores)
		for c := range mix {
			seen[c] = core.MissCurve(msa.NoisyCurve(mix[c], p.snap.NoiseAmplitude, p.faults.RNG(t, c)))
		}
	}
	equalM, err := core.ProjectTotalMisses(mix, p.equalWays)
	if err != nil {
		return Trial{}, err
	}
	ua, err := core.UnrestrictedDegraded(seen, p.cfg.Unrestricted, p.snap.Failed)
	if err != nil {
		return Trial{}, err
	}
	uM, _ := core.ProjectTotalMisses(mix, ua)
	ba, err := core.BankAwareDegraded(seen, p.cfg.BankAware, nil, p.snap.Failed)
	if err != nil {
		return Trial{}, err
	}
	bM, _ := core.ProjectTotalMisses(mix, ba.Ways[:])

	tr.EqualMisses = equalM
	tr.UnrestrictedRatio = stats.Ratio(uM, equalM)
	tr.BankAwareRatio = stats.Ratio(bM, equalM)
	return tr, nil
}

// RunContext executes the experiment on a bounded worker pool. All workload
// draws happen serially up front from the seeded RNG, and the per-trial
// allocator runs (the expensive part) fan out with results stored by trial
// index — so for a fixed cfg.Seed the Results are bit-identical whether
// Workers is 1 or 100. Cancellation or a deadline on ctx stops the fan-out
// and returns the context's error.
func RunContext(ctx context.Context, cfg Config, opt Options) (*Results, error) {
	p, err := NewCampaign(cfg, opt.Faults)
	if err != nil {
		return nil, err
	}
	trials, err := runner.Map(ctx, runner.Config{
		Workers: opt.Workers, Progress: opt.Progress, Journal: opt.Journal,
	}, cfg.Trials, func(_ context.Context, t int) (Trial, error) {
		return p.Trial(t)
	})
	if err != nil {
		return nil, err
	}
	return Assemble(trials), nil
}

// Assemble folds a full campaign's trials (in trial order) into Results,
// exactly as RunContext does: means accumulate in trial order before the
// paper's sort by Unrestricted ratio, so assembling trials computed
// anywhere — one machine, many shards, resumed journals — yields identical
// Results for identical trial values.
func Assemble(trials []Trial) *Results {
	res := &Results{Trials: trials}
	var sumU, sumB float64
	for _, tr := range res.Trials {
		sumU += tr.UnrestrictedRatio
		sumB += tr.BankAwareRatio
	}
	sort.Slice(res.Trials, func(i, j int) bool {
		return res.Trials[i].UnrestrictedRatio < res.Trials[j].UnrestrictedRatio
	})
	res.MeanUnrestrictedRatio = sumU / float64(len(trials))
	res.MeanBankAwareRatio = sumB / float64(len(trials))
	return res
}

// Summary renders the Fig. 7 headline numbers.
func (r *Results) Summary() string {
	return fmt.Sprintf(
		"trials=%d  mean relative miss ratio vs equal: unrestricted %.3f (%.1f%% reduction), bank-aware %.3f (%.1f%% reduction)",
		len(r.Trials),
		r.MeanUnrestrictedRatio, 100*(1-r.MeanUnrestrictedRatio),
		r.MeanBankAwareRatio, 100*(1-r.MeanBankAwareRatio))
}
