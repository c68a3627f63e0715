package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"bankaware/internal/experiments"
	"bankaware/internal/montecarlo"
	"bankaware/internal/sim"
)

// specHashVersion versions the canonical encoding below. Any change to the
// canonicalization rules must bump it: stored reports stay valid, but old
// and new daemons then hash the same spec differently, and mixing them over
// one store would split the cache instead of corrupting it.
const specHashVersion = "bankaware.spec-hash/v1"

// canonicalSpec is the hashed projection of a JobSpec: exactly the fields
// that determine the report bytes, after defaulting. Execution knobs
// (Label, Priority, Workers, TimeoutMS) are deliberately absent — the
// simulator's determinism contract guarantees they shape when and how fast
// a job runs, never what it computes — so two submissions that differ only
// in those knobs are the same cache entry.
//
// The kind sub-specs are the resolved specs below, the very values the unit
// executor runs from, so a folded default cannot drift from the default
// that executes. Canonicalization stays conservative: a default is folded
// only where the resolver applies it (scale "" is "model" everywhere; a set
// job's zero instruction budget is the model default; a Monte Carlo's zero
// trials/seed are the paper's 1000/2009). Everything else hashes as
// submitted — a missed fold costs a cache miss, a wrong fold would serve
// the wrong report.
type canonicalSpec struct {
	Kind    string `json:"kind"`
	Seed    uint64 `json:"seed"`
	Observe bool   `json:"observe"`

	Set         *canonicalSet         `json:"set,omitempty"`
	Experiments *canonicalExperiments `json:"experiments,omitempty"`
	MonteCarlo  *canonicalMonteCarlo  `json:"montecarlo,omitempty"`
}

type canonicalSet struct {
	Set          int      `json:"set"`
	Workloads    []string `json:"workloads,omitempty"`
	Scale        string   `json:"scale"`
	Instructions uint64   `json:"instructions"`
	EpochCycles  int64    `json:"epochCycles"`
	// Fidelity is present only for the fast engine: "" and "detailed"
	// fold to the omitted field, so detailed specs keep their
	// pre-fidelity hashes while fast specs land on distinct entries.
	Fidelity string `json:"fidelity,omitempty"`
}

type canonicalExperiments struct {
	Scale        string `json:"scale"`
	Instructions uint64 `json:"instructions"`
	Fidelity     string `json:"fidelity,omitempty"`
}

type canonicalMonteCarlo struct {
	Trials int    `json:"trials"`
	Seed   uint64 `json:"seed"`
}

func canonicalScale(scale string) string {
	if scale == "" {
		return "model"
	}
	return scale
}

// scaleFor maps a validated scale name to its machine.
func scaleFor(name string) experiments.Scale {
	scale, _ := experiments.ParseScale(name)
	return scale
}

// canonicalFidelity folds "" and "detailed" to the empty string (omitted
// from the canonical JSON — the pre-fidelity encoding) and keeps "fast".
func canonicalFidelity(fidelity string) string {
	if fidelity == "fast" {
		return fidelity
	}
	return ""
}

// resolveSet applies a validated set spec's defaults: the scale, the
// instruction budget and, through the methods below, the epoch override
// and the Table III workloads.
func resolveSet(spec JobSpec) canonicalSet {
	sub := spec.Set
	c := canonicalSet{
		Set:          sub.Set,
		Scale:        canonicalScale(sub.Scale),
		Instructions: sub.Instructions,
		EpochCycles:  sub.EpochCycles,
		Fidelity:     canonicalFidelity(spec.Fidelity),
	}
	if c.Instructions == 0 {
		// A zero budget selects the model-scale default at either scale.
		c.Instructions = experiments.ScaleModel.DefaultInstructions()
	}
	if c.Set == 0 {
		// A set number and an explicit workload list are not folded into
		// each other: the report labels the two differently, so they are
		// different byte streams even when the workloads coincide.
		c.Workloads = append([]string(nil), sub.Workloads...)
	}
	return c
}

// workloads returns the set's eight workloads, core 0 first.
func (c canonicalSet) workloads() []string {
	if c.Set != 0 {
		return experiments.TableIIISets[c.Set-1][:]
	}
	return c.Workloads
}

// config returns the simulator configuration the set runs under.
func (c canonicalSet) config() sim.Config {
	cfg := scaleFor(c.Scale).Config()
	if c.EpochCycles > 0 {
		cfg.EpochCycles = c.EpochCycles
	}
	return cfg
}

// resolveExperiments applies a validated experiments spec's defaults. A
// zero budget stays zero: experiments.NewCampaignEvaluation resolves it
// per scale, and folding it here would move every zero-budget spec's
// cache key.
func resolveExperiments(spec JobSpec) canonicalExperiments {
	return canonicalExperiments{
		Scale:        canonicalScale(spec.Experiments.Scale),
		Instructions: spec.Experiments.Instructions,
		Fidelity:     canonicalFidelity(spec.Fidelity),
	}
}

// resolveMonteCarlo applies a validated Monte Carlo spec's defaults: the
// paper's configuration, then the Trials and Seed overrides.
func resolveMonteCarlo(spec JobSpec) montecarlo.Config {
	cfg := montecarlo.DefaultConfig()
	if spec.MonteCarlo.Trials > 0 {
		cfg.Trials = spec.MonteCarlo.Trials
	}
	if spec.Seed != 0 {
		cfg.Seed = spec.Seed
	}
	return cfg
}

// canonicalize projects a validated spec onto its canonical form.
func canonicalize(spec JobSpec) canonicalSpec {
	c := canonicalSpec{Kind: spec.Kind, Seed: spec.Seed, Observe: spec.Observe}
	switch {
	case spec.Set != nil:
		sub := resolveSet(spec)
		c.Set = &sub
	case spec.Experiments != nil:
		sub := resolveExperiments(spec)
		c.Experiments = &sub
	case spec.MonteCarlo != nil:
		cfg := resolveMonteCarlo(spec)
		c.MonteCarlo = &canonicalMonteCarlo{Trials: cfg.Trials, Seed: cfg.Seed}
		// The campaign seed lives in the sub-spec after defaulting; zero the
		// top-level copy so "seed omitted" and "seed": 2009 hash equal.
		c.Seed = 0
	}
	return c
}

// SpecHash returns the canonical content hash of a validated spec: the
// hex-encoded SHA-256 of the versioned canonical JSON encoding. Two specs
// with equal hashes produce byte-identical reports; the converse is not
// guaranteed (canonicalization is conservative), only harmless.
func SpecHash(spec JobSpec) string {
	data, err := json.Marshal(canonicalize(spec))
	if err != nil {
		// canonicalSpec is plain data; Marshal cannot fail on it.
		panic("service: encoding canonical spec: " + err.Error())
	}
	h := sha256.New()
	h.Write([]byte(specHashVersion))
	h.Write([]byte{':'})
	h.Write(data)
	return hex.EncodeToString(h.Sum(nil))
}

// dedupKey returns the intake dedup-index key for a submission: the
// Idempotency-Key when the client sent one (overriding spec-hash dedup),
// the spec hash otherwise. The two live in distinct namespaces so a key
// can never collide with a hash.
func dedupKey(specHash, idemKey string) string {
	if idemKey != "" {
		return "idem:" + idemKey
	}
	return "spec:" + specHash
}
