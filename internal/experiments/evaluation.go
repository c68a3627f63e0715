package experiments

import (
	"context"
	"fmt"
	"sync"

	"bankaware/internal/core"
	"bankaware/internal/fastsim"
	"bankaware/internal/metrics"
	"bankaware/internal/sim"
	"bankaware/internal/trace"
)

// SetEvaluation is one workload set evaluated on one machine: the policy
// units that simulate the same mix. Core c's access stream is a pure
// function of the seed, the machine's bank sets, the core's spec and c (see
// sim.Generators), so every unit of a set consumes the same eight streams.
// An evaluation that several detailed units will run on records each
// stream once on a trace.Tape, and each unit replays the recordings through
// its own readers instead of generating them again. An evaluation that
// several fast units will run on opens one fastsim.Scope for them: the
// profiles and curve tables are derived once, each micro-replay stream is
// drawn once, and each distinct replay window runs once for whichever
// units ask for it. A single unit has no one to share with and opens
// neither. Either way a unit's result is exactly what a solo run of it
// computes. RunPolicy is safe for concurrent use.
type SetEvaluation struct {
	cfg          sim.Config
	workloads    []string
	specs        []trace.Spec
	instructions uint64
	opt          Options
	runPrefix    string         // prefixes the policy name in Options.Sample run tags
	tapes        []*trace.Tape  // one per core; nil unless detailed units share streams
	scope        *fastsim.Scope // nil unless fast units share one
}

// NewSetEvaluation prepares the evaluation of workloads (one per core) on
// the machine cfg, after opt's seed and fault overrides, for units policy
// units.
func NewSetEvaluation(cfg sim.Config, workloads []string, instructions uint64, units int, opt Options) (*SetEvaluation, error) {
	specs, err := resolveSpecs(workloads)
	if err != nil {
		return nil, err
	}
	e := &SetEvaluation{cfg: opt.apply(cfg), workloads: workloads, specs: specs, instructions: instructions, opt: opt}
	switch {
	case units <= 1:
	case opt.Fidelity == FidelityFast:
		if e.scope, err = fastsim.NewScope(e.cfg, specs); err != nil {
			return nil, err
		}
	default:
		gens, err := sim.Generators(e.cfg, specs)
		if err != nil {
			return nil, err
		}
		e.tapes = make([]*trace.Tape, len(gens))
		for c, g := range gens {
			e.tapes[c] = trace.NewTape(g)
		}
	}
	return e, nil
}

// RunPolicy executes one policy unit — 0 No-partitions, 1 Equal,
// 2 Bank-aware — under its own clone of the policy.
func (e *SetEvaluation) RunPolicy(ctx context.Context, policy int) (PolicyRun, error) {
	if policy < 0 || policy >= SetPolicies {
		return PolicyRun{}, fmt.Errorf("experiments: policy index %d out of range [0, %d)", policy, SetPolicies)
	}
	proto := setPolicyPrototypes()[policy]
	sys, err := e.engine(core.ClonePolicy(proto))
	if err != nil {
		return PolicyRun{}, err
	}
	var rec *metrics.Recorder
	if e.opt.Observe || e.opt.Sample != nil {
		rec = metrics.NewRecorder()
	}
	return RunEngine(ctx, sys, e.workloads, e.instructions, rec, e.opt.sampler(e.runPrefix+proto.Name()))
}

// engine builds one unit's engine: on the shared scope or over fresh tape
// readers when the units share either, otherwise as NewEngine would.
func (e *SetEvaluation) engine(policy core.Policy) (Engine, error) {
	switch {
	case e.scope != nil:
		return e.scope.NewSystem(policy)
	case e.tapes != nil:
		streams := make([]trace.Stream, len(e.tapes))
		for c, t := range e.tapes {
			streams[c] = t.Reader()
		}
		return sim.NewWithStreams(e.cfg, policy, streams)
	}
	return NewEngine(e.opt.Fidelity, e.cfg, policy, e.specs)
}

// CampaignEvaluation runs units of the Figs. 8/9 campaign, one
// SetEvaluation per Table III set: unit/3 selects the set, unit%3 the
// policy. It is planned for the units its caller will run. The first of a
// set's planned units to start opens the set's evaluation, sized for the
// set's planned units, and once they have all succeeded the evaluation is
// dropped with its tapes or scope, so a campaign holds those of only the
// sets it is working on. A unit outside the plan still runs, on an
// evaluation of its own. RunUnit is safe for concurrent use.
type CampaignEvaluation struct {
	scale        Scale
	instructions uint64
	planned      [CampaignUnits]bool
	opt          Options

	mu   sync.Mutex
	sets map[int]*openSet
}

// openSet is an open set's evaluation and the number of its planned units
// that have yet to succeed.
type openSet struct {
	eval *SetEvaluation
	left int
}

// NewCampaignEvaluation prepares the campaign at scale for a run of the
// listed units. A zero instructions selects the scale's default budget.
func NewCampaignEvaluation(scale Scale, instructions uint64, units []int, opt Options) *CampaignEvaluation {
	if instructions == 0 {
		instructions = scale.DefaultInstructions()
	}
	c := &CampaignEvaluation{scale: scale, instructions: instructions, opt: opt, sets: make(map[int]*openSet)}
	for _, u := range units {
		if u >= 0 && u < CampaignUnits {
			c.planned[u] = true
		}
	}
	return c
}

// RunUnit executes one flattened (set, policy) simulation of the campaign.
// The returned PolicyRun is exactly what RunFig8Fig9Context computes at
// that index.
func (c *CampaignEvaluation) RunUnit(ctx context.Context, unit int) (PolicyRun, error) {
	if unit < 0 || unit >= CampaignUnits {
		return PolicyRun{}, fmt.Errorf("experiments: campaign unit %d out of range [0, %d)", unit, CampaignUnits)
	}
	set, pol := unit/SetPolicies, unit%SetPolicies
	e, err := c.open(set, c.planned[unit])
	if err != nil {
		return PolicyRun{}, err
	}
	r, err := e.RunPolicy(ctx, pol)
	if err != nil {
		return PolicyRun{}, fmt.Errorf("set %d (%s): %w", set+1, setPolicyPrototypes()[pol].Name(), err)
	}
	if c.planned[unit] {
		c.done(set)
	}
	return r, nil
}

// open returns the evaluation a unit of set runs on: for a planned unit the
// set's shared one, prepared on first use for the set's planned units, and
// for any other unit one of its own.
func (c *CampaignEvaluation) open(set int, planned bool) (*SetEvaluation, error) {
	units := 1
	if planned {
		c.mu.Lock()
		defer c.mu.Unlock()
		if s := c.sets[set]; s != nil {
			return s.eval, nil
		}
		units = 0
		for _, p := range c.planned[set*SetPolicies : (set+1)*SetPolicies] {
			if p {
				units++
			}
		}
	}
	e, err := NewSetEvaluation(c.scale.Config(), TableIIISets[set][:], c.instructions, units, c.opt)
	if err != nil {
		return nil, err
	}
	e.runPrefix = fmt.Sprintf("set%d/", set+1)
	if planned {
		c.sets[set] = &openSet{eval: e, left: units}
	}
	return e, nil
}

// done counts one of set's planned units as succeeded and drops the set's
// evaluation after the last.
func (c *CampaignEvaluation) done(set int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.sets[set]
	if s.left--; s.left == 0 {
		delete(c.sets, set)
	}
}
