package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"bankaware/internal/experiments"
	"bankaware/internal/nuca"
	"bankaware/internal/trace"
)

// Job kinds. Each maps onto one of the library's evaluation campaigns.
const (
	// KindSet evaluates one workload set under the three policies
	// (experiments.RunSetContext — one bar group of Figs. 8/9).
	KindSet = "set"
	// KindExperiments runs the full Figs. 8/9 campaign: 8 Table III sets x
	// 3 policies flattened to 24 simulations.
	KindExperiments = "experiments"
	// KindMonteCarlo runs the Fig. 7 comparative Monte Carlo. Completed
	// trials are journaled, so drained jobs resume instead of restarting.
	KindMonteCarlo = "montecarlo"
)

// maxSpecBytes bounds a submission body; anything larger is rejected before
// decoding. The largest legitimate spec (8 workload names plus scalars) is
// a few hundred bytes.
const maxSpecBytes = 1 << 16

// JobSpec is the JSON job description the daemon accepts over POST
// /v1/jobs. Exactly one of the kind-specific sub-specs must be present and
// must match Kind. Execution knobs (priority, workers, timeout) shape when
// and how fast the job runs, never what it computes: a spec with a fixed
// seed produces byte-identical reports on every daemon.
type JobSpec struct {
	// Kind selects the campaign: set | experiments | montecarlo.
	Kind string `json:"kind"`
	// Label is a free-form identifier echoed in listings.
	Label string `json:"label,omitempty"`
	// Priority orders the queue: higher runs first, ties run in submission
	// order. Zero is the default service class.
	Priority int `json:"priority,omitempty"`
	// Workers bounds the job's internal fan-out; zero selects the server's
	// default. Results never depend on it.
	Workers int `json:"workers,omitempty"`
	// TimeoutMS deadlines the whole job; a job exceeding it fails. Zero
	// means no per-job deadline.
	TimeoutMS int64 `json:"timeoutMs,omitempty"`
	// Seed overrides the campaign seed (the montecarlo draw seed, the
	// simulator seed of detailed runs). Zero keeps each campaign's default.
	Seed uint64 `json:"seed,omitempty"`
	// Observe retains full observation runs (epoch series, partition
	// events) in the report of detailed-simulation jobs, like running the
	// library with observation enabled. Off, the report carries the summary
	// only — byte-identical to a default Runner run. Live SSE epoch
	// streaming works either way.
	Observe bool `json:"observe,omitempty"`
	// Fidelity selects the execution engine of simulation jobs: "detailed"
	// (or empty) for the cycle-accurate simulator, "fast" for the
	// interval-model fast path. Unlike the execution knobs above, fidelity
	// changes what gets computed — fast and detailed submissions are
	// distinct specs with distinct cache entries. Monte Carlo jobs (already
	// analytic) reject a non-default fidelity.
	Fidelity string `json:"fidelity,omitempty"`

	Set         *SetSpec         `json:"set,omitempty"`
	Experiments *ExperimentsSpec `json:"experiments,omitempty"`
	MonteCarlo  *MonteCarloSpec  `json:"montecarlo,omitempty"`
}

// SetSpec parametrises a KindSet job.
type SetSpec struct {
	// Set picks a Table III set (1-8). Mutually exclusive with Workloads.
	Set int `json:"set,omitempty"`
	// Workloads lists exactly 8 catalog workloads, core 0 through 7.
	Workloads []string `json:"workloads,omitempty"`
	// Scale is the machine size: "model" (default) or "full".
	Scale string `json:"scale,omitempty"`
	// Instructions is the per-core budget; zero selects the model default.
	Instructions uint64 `json:"instructions,omitempty"`
	// EpochCycles overrides the repartitioning period when positive.
	EpochCycles int64 `json:"epochCycles,omitempty"`
}

// ExperimentsSpec parametrises a KindExperiments job.
type ExperimentsSpec struct {
	// Scale is the machine size: "model" (default) or "full".
	Scale string `json:"scale,omitempty"`
	// Instructions is the per-core budget; zero selects the scale default.
	Instructions uint64 `json:"instructions,omitempty"`
}

// MonteCarloSpec parametrises a KindMonteCarlo job.
type MonteCarloSpec struct {
	// Trials is the number of random mixes; zero selects the paper's 1000.
	Trials int `json:"trials,omitempty"`
}

// maxTrials caps a Monte Carlo submission. The paper's campaign is 1000
// trials; two orders of magnitude of headroom covers convergence studies
// without letting one submission occupy the daemon for days.
const maxTrials = 1_000_000

// DecodeJobSpec parses and validates one JSON job spec. It is strict — no
// unknown fields, no trailing data, bounded size — so a malformed
// submission is always a clean error, never a panic or a half-built job.
func DecodeJobSpec(r io.Reader) (*JobSpec, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxSpecBytes+1))
	if err != nil {
		return nil, fmt.Errorf("reading job spec: %w", err)
	}
	if len(data) > maxSpecBytes {
		return nil, fmt.Errorf("job spec exceeds %d bytes", maxSpecBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("decoding job spec: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return nil, fmt.Errorf("job spec has trailing data")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &spec, nil
}

// ValidationError marks a spec that decoded cleanly but describes an
// impossible job. The HTTP layer maps it to 422 Unprocessable Entity
// (distinct from 400 for bodies that are not even well-formed JSON).
type ValidationError struct {
	msg string
}

func (e *ValidationError) Error() string { return e.msg }

// invalidSpec builds a ValidationError.
func invalidSpec(format string, args ...any) error {
	return &ValidationError{msg: fmt.Sprintf(format, args...)}
}

// Validate reports structural problems with the spec.
func (s *JobSpec) Validate() error {
	if s.TimeoutMS < 0 {
		return fmt.Errorf("timeoutMs must be >= 0, got %d", s.TimeoutMS)
	}
	if s.Workers < 0 {
		return fmt.Errorf("workers must be >= 0, got %d", s.Workers)
	}
	fidelity, err := experiments.ParseFidelity(s.Fidelity)
	if err != nil {
		return invalidSpec("unknown fidelity %q (want detailed|fast)", s.Fidelity)
	}
	present := 0
	for _, p := range []bool{s.Set != nil, s.Experiments != nil, s.MonteCarlo != nil} {
		if p {
			present++
		}
	}
	if present > 1 {
		return fmt.Errorf("job spec carries %d kind sub-specs, want exactly the one matching kind %q", present, s.Kind)
	}
	switch s.Kind {
	case KindSet:
		if s.Set == nil {
			return fmt.Errorf("kind %q needs a \"set\" sub-spec", s.Kind)
		}
		return s.Set.validate()
	case KindExperiments:
		if s.Experiments == nil {
			return fmt.Errorf("kind %q needs an \"experiments\" sub-spec", s.Kind)
		}
		_, err := experiments.ParseScale(s.Experiments.Scale)
		return err
	case KindMonteCarlo:
		if s.MonteCarlo == nil {
			return fmt.Errorf("kind %q needs a \"montecarlo\" sub-spec", s.Kind)
		}
		if t := s.MonteCarlo.Trials; t < 0 || t > maxTrials {
			return fmt.Errorf("trials must be in [0, %d], got %d", maxTrials, t)
		}
		if fidelity == experiments.FidelityFast {
			return invalidSpec("montecarlo jobs are analytic and have no fidelity tiers")
		}
		return nil
	case "":
		return fmt.Errorf("job spec has no kind (want %s|%s|%s)", KindSet, KindExperiments, KindMonteCarlo)
	default:
		return fmt.Errorf("unknown job kind %q (want %s|%s|%s)", s.Kind, KindSet, KindExperiments, KindMonteCarlo)
	}
}

func (s *SetSpec) validate() error {
	if _, err := experiments.ParseScale(s.Scale); err != nil {
		return err
	}
	if s.EpochCycles < 0 {
		return fmt.Errorf("epochCycles must be >= 0, got %d", s.EpochCycles)
	}
	switch {
	case s.Set != 0 && len(s.Workloads) > 0:
		return fmt.Errorf("set and workloads are mutually exclusive")
	case s.Set != 0:
		if s.Set < 1 || s.Set > 8 {
			return fmt.Errorf("set must be 1-8, got %d", s.Set)
		}
	case len(s.Workloads) > 0:
		if len(s.Workloads) != nuca.NumCores {
			return fmt.Errorf("need %d workloads, got %d", nuca.NumCores, len(s.Workloads))
		}
		for _, w := range s.Workloads {
			if _, err := trace.SpecByName(w); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("set spec needs a Table III set number or 8 workloads")
	}
	return nil
}

// fidelityFor resolves a validated spec's execution fidelity.
func fidelityFor(spec JobSpec) experiments.Fidelity {
	f, err := experiments.ParseFidelity(spec.Fidelity)
	if err != nil {
		// Validate admits only parseable fidelities.
		panic("service: unvalidated spec: " + err.Error())
	}
	return f
}
