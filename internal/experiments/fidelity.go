package experiments

import (
	"context"
	"fmt"

	"bankaware/internal/core"
	"bankaware/internal/fastsim"
	"bankaware/internal/metrics"
	"bankaware/internal/sim"
	"bankaware/internal/trace"
)

// Fidelity selects the execution engine behind a detailed-simulation
// campaign. Both engines consume the same configuration, policies and
// workload catalog and emit the same result and report shapes; they differ
// in how simulated time advances.
type Fidelity string

const (
	// FidelityDetailed is the cycle-accurate event-driven engine
	// (internal/sim): every memory access walks the real cache banks,
	// interconnect and DRAM timelines. The empty string means detailed —
	// the zero Options value keeps its historical behaviour.
	FidelityDetailed Fidelity = "detailed"
	// FidelityFast is the interval-model engine (internal/fastsim):
	// closed-form epoch advancement from measured workload profiles, with
	// micro-replay windows for CPI. Deterministic and byte-stable like the
	// detailed engine, at a fraction of the cost; accuracy is bounded by
	// the committed envelopes in internal/fastsim/testdata. Fast results
	// are *not* interchangeable with detailed ones — the two fidelities
	// hash to distinct experiment specs.
	FidelityFast Fidelity = "fast"
)

// ParseFidelity normalises a fidelity string: empty and "detailed" select
// the detailed engine, "fast" the interval-model engine, anything else is
// an error.
func ParseFidelity(s string) (Fidelity, error) {
	switch Fidelity(s) {
	case "", FidelityDetailed:
		return FidelityDetailed, nil
	case FidelityFast:
		return FidelityFast, nil
	}
	return "", fmt.Errorf("experiments: unknown fidelity %q (want detailed|fast)", s)
}

// Fidelities lists the supported fidelity modes in canonical order.
func Fidelities() []string {
	return []string{string(FidelityDetailed), string(FidelityFast)}
}

// Engine is the simulation surface one run drives. sim.System and
// fastsim.System both implement it, serving everything but RunContext from
// their shared sim.Accounting; which one backs a run is decided by its
// fidelity.
type Engine interface {
	EnableMetrics(rec *metrics.Recorder) *metrics.Recorder
	RunContext(ctx context.Context, instructions uint64) error
	ResetStats()
	Policy() core.Policy
	Allocation() *core.Allocation
	Result(workloads []string) sim.Result
	RunReport(name string, workloads []string) metrics.RunReport
}

// NewEngine constructs the engine for one run at the given fidelity.
func NewEngine(f Fidelity, cfg sim.Config, policy core.Policy, specs []trace.Spec) (Engine, error) {
	if f == FidelityFast {
		return fastsim.New(cfg, policy, specs)
	}
	return sim.New(cfg, policy, specs)
}

// FidelityTag is the result/report stamp for a fidelity: detailed runs
// stamp nothing (their result and report bytes predate the fidelity field
// and must not change), fast runs stamp "fast".
func FidelityTag(f Fidelity) string {
	if f == FidelityFast {
		return string(FidelityFast)
	}
	return ""
}

var _ Engine = (*sim.System)(nil)
var _ Engine = (*fastsim.System)(nil)
