package service

import (
	"testing"

	"bankaware/internal/experiments"
)

func mustHash(t *testing.T, spec JobSpec) string {
	t.Helper()
	if err := spec.Validate(); err != nil {
		t.Fatalf("invalid spec in hash test: %v", err)
	}
	return SpecHash(spec)
}

// TestSpecHashFoldsDefaults pins the canonicalization rules: every folded
// default must hash identically to its explicit value, because the
// resolvers the unit executor runs from map the two to the same values.
func TestSpecHashFoldsDefaults(t *testing.T) {
	cases := []struct {
		name string
		a, b JobSpec
	}{
		{
			"set scale empty is model",
			JobSpec{Kind: KindSet, Set: &SetSpec{Set: 1, Instructions: 1000}},
			JobSpec{Kind: KindSet, Set: &SetSpec{Set: 1, Scale: "model", Instructions: 1000}},
		},
		{
			"set zero instructions is the model default",
			JobSpec{Kind: KindSet, Set: &SetSpec{Set: 1}},
			JobSpec{Kind: KindSet, Set: &SetSpec{Set: 1, Instructions: experiments.ScaleModel.DefaultInstructions()}},
		},
		{
			"experiments scale empty is model",
			JobSpec{Kind: KindExperiments, Experiments: &ExperimentsSpec{Instructions: 500}},
			JobSpec{Kind: KindExperiments, Experiments: &ExperimentsSpec{Scale: "model", Instructions: 500}},
		},
		{
			"montecarlo zero trials is the paper's 1000",
			JobSpec{Kind: KindMonteCarlo, Seed: 5, MonteCarlo: &MonteCarloSpec{}},
			JobSpec{Kind: KindMonteCarlo, Seed: 5, MonteCarlo: &MonteCarloSpec{Trials: 1000}},
		},
		{
			"montecarlo zero seed is the paper's 2009",
			JobSpec{Kind: KindMonteCarlo, MonteCarlo: &MonteCarloSpec{Trials: 10}},
			JobSpec{Kind: KindMonteCarlo, Seed: 2009, MonteCarlo: &MonteCarloSpec{Trials: 10}},
		},
		{
			// Detailed hashes must not move when the fidelity field is
			// spelled out: pre-fidelity caches stay valid.
			"set empty fidelity is detailed",
			JobSpec{Kind: KindSet, Set: &SetSpec{Set: 1}},
			JobSpec{Kind: KindSet, Fidelity: "detailed", Set: &SetSpec{Set: 1}},
		},
		{
			"experiments empty fidelity is detailed",
			JobSpec{Kind: KindExperiments, Experiments: &ExperimentsSpec{Instructions: 500}},
			JobSpec{Kind: KindExperiments, Fidelity: "detailed", Experiments: &ExperimentsSpec{Instructions: 500}},
		},
		{
			"execution knobs are excluded",
			JobSpec{Kind: KindMonteCarlo, Seed: 3, MonteCarlo: &MonteCarloSpec{Trials: 10}},
			JobSpec{Kind: KindMonteCarlo, Seed: 3, Label: "x", Priority: 9, Workers: 4,
				TimeoutMS: 60000, MonteCarlo: &MonteCarloSpec{Trials: 10}},
		},
	}
	for _, c := range cases {
		if ha, hb := mustHash(t, c.a), mustHash(t, c.b); ha != hb {
			t.Errorf("%s: hashes differ\n  a: %s\n  b: %s", c.name, ha, hb)
		}
	}
}

// TestSpecHashSeparatesResults pins the opposite direction: anything that
// changes the report bytes must change the hash.
func TestSpecHashSeparatesResults(t *testing.T) {
	set1 := experiments.TableIIISets[0]
	cases := []struct {
		name string
		a, b JobSpec
	}{
		{
			"different seeds",
			JobSpec{Kind: KindMonteCarlo, Seed: 1, MonteCarlo: &MonteCarloSpec{Trials: 10}},
			JobSpec{Kind: KindMonteCarlo, Seed: 2, MonteCarlo: &MonteCarloSpec{Trials: 10}},
		},
		{
			"different trials",
			JobSpec{Kind: KindMonteCarlo, MonteCarlo: &MonteCarloSpec{Trials: 10}},
			JobSpec{Kind: KindMonteCarlo, MonteCarlo: &MonteCarloSpec{Trials: 11}},
		},
		{
			"different sets",
			JobSpec{Kind: KindSet, Set: &SetSpec{Set: 1}},
			JobSpec{Kind: KindSet, Set: &SetSpec{Set: 2}},
		},
		{
			"observe changes the report",
			JobSpec{Kind: KindSet, Set: &SetSpec{Set: 1}},
			JobSpec{Kind: KindSet, Observe: true, Set: &SetSpec{Set: 1}},
		},
		{
			// The two label their reports differently, so folding them
			// together would serve wrong bytes even when the workloads match.
			"set number vs explicit workload list",
			JobSpec{Kind: KindSet, Set: &SetSpec{Set: 1}},
			JobSpec{Kind: KindSet, Set: &SetSpec{Workloads: set1[:]}},
		},
		{
			"different kinds",
			JobSpec{Kind: KindSet, Set: &SetSpec{Set: 1}},
			JobSpec{Kind: KindExperiments, Experiments: &ExperimentsSpec{}},
		},
		{
			// Fidelity is semantic, not an execution knob: a fast report
			// must never be served from the detailed cache entry or vice
			// versa.
			"fast vs detailed set",
			JobSpec{Kind: KindSet, Set: &SetSpec{Set: 1}},
			JobSpec{Kind: KindSet, Fidelity: "fast", Set: &SetSpec{Set: 1}},
		},
		{
			"fast vs detailed experiments",
			JobSpec{Kind: KindExperiments, Experiments: &ExperimentsSpec{}},
			JobSpec{Kind: KindExperiments, Fidelity: "fast", Experiments: &ExperimentsSpec{}},
		},
	}
	for _, c := range cases {
		if ha, hb := mustHash(t, c.a), mustHash(t, c.b); ha == hb {
			t.Errorf("%s: hashes collide (%s)", c.name, ha)
		}
	}
}

// TestSpecHashPinned pins literal hashes, one per kind and defaulting
// shape. If this test fails, the canonical encoding changed: bump
// specHashVersion, because old and new daemons would otherwise split one
// store's cache between two keyings.
func TestSpecHashPinned(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
		want string
	}{
		{
			"montecarlo",
			JobSpec{Kind: KindMonteCarlo, Seed: 2009, MonteCarlo: &MonteCarloSpec{Trials: 25}},
			"3bbaf6c5039004b29e44492a30e00cc2f5c4e88b237a67dd859252fcb2124931",
		},
		{
			"set by number, scale and instructions defaulted",
			JobSpec{Kind: KindSet, Set: &SetSpec{Set: 1}},
			"893233914fe22a0b75c0f0a29cfc6cc3da59f5d4227ab6a7d98e0fdeaaba74eb",
		},
		{
			"set as a workload list",
			JobSpec{Kind: KindSet, Set: &SetSpec{Workloads: experiments.TableIIISets[1][:]}},
			"7110235fc5eb0cfa0c03cf0cb265f2970d8a082c8986322e392766a43a235cce",
		},
		{
			"fast set",
			JobSpec{Kind: KindSet, Fidelity: "fast", Set: &SetSpec{Set: 3, Instructions: 300_000, EpochCycles: 200_000}},
			"ed640b8d3a4e02e14328479bd9e8954a92a08d04c46113c5d4dd3faa2469cc95",
		},
		{
			"experiments, instructions defaulted",
			JobSpec{Kind: KindExperiments, Experiments: &ExperimentsSpec{}},
			"8a93a9ca9706653f63daa4baa683d23f50e090b7ae0056141f3b620160e85f70",
		},
		{
			"experiments, explicit budget",
			JobSpec{Kind: KindExperiments, Experiments: &ExperimentsSpec{Instructions: 60_000}},
			"e0086641f3e1b0f29e38cfed44610f37c22835629fc5e9ec0da677031ecfe3b5",
		},
		{
			"fast experiments",
			JobSpec{Kind: KindExperiments, Fidelity: "fast", Experiments: &ExperimentsSpec{}},
			"183b1288eb8cf077f645f5f3e0a6cea104dcd5fdd6516c07b41f31fc83bb0d9e",
		},
	}
	for _, c := range cases {
		if got := mustHash(t, c.spec); got != c.want {
			t.Errorf("%s: SpecHash = %s, want %s (canonical encoding changed? bump specHashVersion)", c.name, got, c.want)
		}
	}
}

func TestDedupKeyNamespaces(t *testing.T) {
	if k := dedupKey("abc", ""); k != "spec:abc" {
		t.Fatalf("spec key = %q", k)
	}
	if k := dedupKey("abc", "client-7"); k != "idem:client-7" {
		t.Fatalf("idem key = %q", k)
	}
}
