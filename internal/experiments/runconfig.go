package experiments

import (
	"encoding/json"
	"fmt"
	"os"

	"bankaware/internal/cache"
	"bankaware/internal/core"
	"bankaware/internal/nuca"
	"bankaware/internal/sim"
	"bankaware/internal/trace"
)

// RunConfig is the JSON description of one run: `bankaware sim -config
// file.json` reads one, and the command's selection flags fill one, so
// experiment configurations can be versioned and shared instead of
// reassembled from flags.
//
// Example:
//
//	{
//	  "workloads": ["apsi","galgel","gcc","mgrid","applu","mesa","facerec","gzip"],
//	  "policy": "bankaware",
//	  "scale": "model",
//	  "instructions": 3000000,
//	  "epochCycles": 1500000,
//	  "adaptiveEpochs": true,
//	  "memChannels": 2,
//	  "l2Replacement": "plru",
//	  "seed": 42,
//	  "fidelity": "fast"
//	}
type RunConfig struct {
	Workloads      []string `json:"workloads"`
	Policy         string   `json:"policy"`
	Scale          string   `json:"scale"`
	Instructions   uint64   `json:"instructions"`
	EpochCycles    int64    `json:"epochCycles"`
	AdaptiveEpochs bool     `json:"adaptiveEpochs"`
	MemChannels    int      `json:"memChannels"`
	L2Replacement  string   `json:"l2Replacement"`
	Seed           uint64   `json:"seed"`
	// Fidelity selects the execution engine: "detailed" (or empty) for the
	// cycle-accurate simulator, "fast" for the interval-model fast path.
	Fidelity string `json:"fidelity,omitempty"`
}

// LoadRunConfig parses and validates a run-config file.
func LoadRunConfig(path string) (*RunConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rc RunConfig
	if err := json.Unmarshal(data, &rc); err != nil {
		return nil, fmt.Errorf("experiments: parsing %s: %w", path, err)
	}
	if err := rc.Validate(); err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", path, err)
	}
	return &rc, nil
}

// Validate reports structural problems.
func (rc *RunConfig) Validate() error {
	if len(rc.Workloads) != nuca.NumCores {
		return fmt.Errorf("need %d workloads, got %d", nuca.NumCores, len(rc.Workloads))
	}
	for _, w := range rc.Workloads {
		if _, err := trace.SpecByName(w); err != nil {
			return err
		}
	}
	if rc.Policy != "" {
		if _, err := core.PolicyByName(rc.Policy); err != nil {
			return err
		}
	}
	if _, err := ParseScale(rc.Scale); err != nil {
		return err
	}
	switch rc.L2Replacement {
	case "", "lru", "plru":
	default:
		return fmt.Errorf("unknown l2Replacement %q (want lru|plru)", rc.L2Replacement)
	}
	if _, err := ParseFidelity(rc.Fidelity); err != nil {
		return err
	}
	return nil
}

// Build materialises the run: simulator config, policy, workload specs and
// instruction budget, with unset fields defaulting sensibly.
func (rc *RunConfig) Build() (sim.Config, core.Policy, []trace.Spec, uint64, error) {
	scale, err := ParseScale(rc.Scale)
	if err != nil {
		return sim.Config{}, nil, nil, 0, err
	}
	cfg := scale.Config()
	if rc.EpochCycles > 0 {
		cfg.EpochCycles = rc.EpochCycles
	}
	cfg.AdaptiveEpochs = rc.AdaptiveEpochs
	if rc.MemChannels > 0 {
		cfg.MemChannels = rc.MemChannels
	}
	if rc.L2Replacement == "plru" {
		cfg.L2Replacement = cache.TreePLRU
	}
	if rc.Seed != 0 {
		cfg.Seed = rc.Seed
	}
	policyName := rc.Policy
	if policyName == "" {
		policyName = "bankaware"
	}
	policy, err := core.PolicyByName(policyName)
	if err != nil {
		return sim.Config{}, nil, nil, 0, err
	}
	specs, err := resolveSpecs(rc.Workloads)
	if err != nil {
		return sim.Config{}, nil, nil, 0, err
	}
	instr := rc.Instructions
	if instr == 0 {
		instr = scale.DefaultInstructions()
	}
	if err := cfg.Validate(); err != nil {
		return sim.Config{}, nil, nil, 0, err
	}
	return cfg, policy, specs, instr, nil
}
