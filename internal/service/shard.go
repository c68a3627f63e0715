package service

import (
	"context"
	"encoding/json"
	"fmt"

	"bankaware/internal/experiments"
	"bankaware/internal/metrics"
	"bankaware/internal/montecarlo"
	"bankaware/internal/runner"
)

// This file maps job kinds onto campaign units — the indivisible pieces a
// job decomposes into — and implements both sides of the unit contract:
// executeShardUnits (what a worker computes for units [from, to), and what
// a single-node daemon computes for the whole range) and mergeUnits (how
// every unit folds back into the report). Both execution modes run this one
// path, reading the spec through the resolvers in hash.go, so unit u of
// spec S is a pure function of (S, u) and a distributed job's merged report
// is byte-identical to a single-node one by construction.

// campaignUnits returns how many units spec's campaign decomposes into:
// one per Monte Carlo trial, one per policy simulation of a set run, one
// per flattened (set, policy) simulation of the full experiments campaign.
func campaignUnits(spec JobSpec) int {
	switch spec.Kind {
	case KindSet:
		return experiments.SetPolicies
	case KindExperiments:
		return experiments.CampaignUnits
	default: // KindMonteCarlo; Validate admits nothing else
		return resolveMonteCarlo(spec).Trials
	}
}

// shardOptions tunes the execution of a unit range.
type shardOptions struct {
	// Workers bounds the fan-out within the range.
	Workers int
	// Progress receives engine events (the executing daemon's own registry
	// and event hub).
	Progress runner.ProgressFunc
	// Sample, when non-nil, receives the detailed simulations' live epoch
	// samples (a single-node job's SSE stream; workers pass nil).
	Sample func(run string, s metrics.EpochSample)
	// Journal checkpoints completed units keyed by their offset within the
	// range, so a resumed range skips finished units. A daemon's unit
	// journal covers a job's whole range, so its keys are unit indices.
	Journal *runner.Journal
}

// pending returns the units of [from, to) the range will compute: those
// the journal holds no result for.
func (opt shardOptions) pending(from, to int) []int {
	if opt.Journal == nil {
		units := make([]int, to-from)
		for i := range units {
			units[i] = from + i
		}
		return units
	}
	units := opt.Journal.Lacks(0, to-from)
	for i := range units {
		units[i] += from
	}
	return units
}

// executeShardUnits computes units [from, to) of spec's campaign and
// returns one JSON-encoded unit result per unit, in unit order. The
// encoding is the wire form of ShardUpload.Units; mergeUnits decodes it
// back. JSON round-trips float64 exactly, so shipping units through this
// encoding cannot perturb the merged report. A journal records each unit's
// bytes as the unit finishes and hands recorded units back as they stand.
func executeShardUnits(ctx context.Context, spec JobSpec, from, to int, opt shardOptions) ([]json.RawMessage, error) {
	total := campaignUnits(spec)
	if from < 0 || to > total || from >= to {
		return nil, fmt.Errorf("service: shard [%d, %d) out of range for %d units", from, to, total)
	}
	eopt := experiments.Options{
		Seed: spec.Seed, Observe: spec.Observe, Sample: opt.Sample, Fidelity: fidelityFor(spec),
	}
	// The units the range computes share one evaluation scope, so each
	// set's streams are generated once for all of them here; units the
	// journal restores take no share.
	pending := opt.pending(from, to)
	var unit func(context.Context, int) (json.RawMessage, error)
	switch spec.Kind {
	case KindMonteCarlo:
		campaign, err := montecarlo.NewCampaign(resolveMonteCarlo(spec), nil)
		if err != nil {
			return nil, err
		}
		unit = encoded(func(_ context.Context, t int) (montecarlo.Trial, error) { return campaign.Trial(t) })
	case KindSet:
		set := resolveSet(spec)
		eval, err := experiments.NewSetEvaluation(set.config(), set.workloads(), set.Instructions, len(pending), eopt)
		if err != nil {
			return nil, err
		}
		unit = encoded(eval.RunPolicy)
	default: // KindExperiments
		exp := resolveExperiments(spec)
		unit = encoded(experiments.NewCampaignEvaluation(scaleFor(exp.Scale), exp.Instructions, pending, eopt).RunUnit)
	}
	return runner.Map(ctx, runner.Config{
		Workers: opt.Workers, Progress: opt.Progress, Journal: opt.Journal,
	}, to-from, func(ctx context.Context, u int) (json.RawMessage, error) {
		return unit(ctx, from+u)
	})
}

// encoded wraps a typed unit function to return its result marshalled.
func encoded[T any](unit func(context.Context, int) (T, error)) func(context.Context, int) (json.RawMessage, error) {
	return func(ctx context.Context, u int) (json.RawMessage, error) {
		res, err := unit(ctx, u)
		if err != nil {
			return nil, err
		}
		data, err := json.Marshal(res)
		if err != nil {
			return nil, fmt.Errorf("service: encoding unit %d: %w", u, err)
		}
		return data, nil
	}
}

// decodeUnits unmarshals the wire units strictly back into their typed
// form.
func decodeUnits[T any](units []json.RawMessage) ([]T, error) {
	out := make([]T, len(units))
	for i, raw := range units {
		if err := json.Unmarshal(raw, &out[i]); err != nil {
			return nil, fmt.Errorf("service: decoding unit %d: %w", i, err)
		}
	}
	return out, nil
}

// mergeUnits folds a complete campaign's units (all of them, in unit
// order) into the job report with the library's own assemblers — the ones
// behind experiments.RunSetContext, RunFig8Fig9Context and
// montecarlo.RunContext — so the bytes match a direct library run.
func mergeUnits(spec JobSpec, units []json.RawMessage) (*metrics.Report, error) {
	if got, want := len(units), campaignUnits(spec); got != want {
		return nil, fmt.Errorf("service: merge needs %d units, got %d", want, got)
	}
	if spec.Kind == KindMonteCarlo {
		trials, err := decodeUnits[montecarlo.Trial](units)
		if err != nil {
			return nil, err
		}
		return montecarlo.Assemble(trials).Report(), nil
	}
	runs, err := decodeUnits[experiments.PolicyRun](units)
	if err != nil {
		return nil, err
	}
	if spec.Kind == KindSet {
		set := resolveSet(spec)
		res, err := experiments.AssembleSetResult(set.Set, set.workloads(), runs, spec.Observe, fidelityFor(spec))
		if err != nil {
			return nil, err
		}
		return res.Report(), nil
	}
	res, err := experiments.AssembleFig8Fig9(runs, spec.Observe, fidelityFor(spec))
	if err != nil {
		return nil, err
	}
	return res.Report(), nil
}

// shardSpan is one shard's unit range [From, To); a shard's index is its
// position in the plan.
type shardSpan struct {
	From, To int
}

// planShards splits n units into contiguous shards of at most size units.
// size <= 0 selects a default that gives a small fleet a healthy number of
// shards to steal (n/16, at least 1). The plan is a pure function of its
// arguments, so a coordinator derives it afresh whenever a job starts.
func planShards(n, size int) []shardSpan {
	if size <= 0 {
		size = (n + 15) / 16
		if size < 1 {
			size = 1
		}
	}
	var spans []shardSpan
	for from := 0; from < n; from += size {
		spans = append(spans, shardSpan{From: from, To: min(from+size, n)})
	}
	return spans
}
