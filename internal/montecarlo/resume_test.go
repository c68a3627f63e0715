package montecarlo

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"testing"

	"bankaware/internal/faults"
	"bankaware/internal/runner"
)

// resumeConfig keeps the resume tests fast while exercising the full path.
func resumeConfig(trials int) Config {
	cfg := smallConfig(trials)
	cfg.Seed = 77
	return cfg
}

// reportBytes renders a campaign's report deterministically.
func reportBytes(t *testing.T, res *Results) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Report().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestResumeEmitsIdenticalReport is the crash-safety acceptance criterion:
// a campaign killed mid-run and resumed from its journal emits a report
// byte-identical to an uninterrupted run.
func TestResumeEmitsIdenticalReport(t *testing.T) {
	cfg := resumeConfig(40)
	uninterrupted, err := RunContext(context.Background(), cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, uninterrupted)

	// Phase 1: journal on, killed via cancellation partway through.
	path := filepath.Join(t.TempDir(), "fig7.journal")
	j, err := runner.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	_, err = RunContext(ctx, cfg, Options{
		Workers: 2, Journal: j,
		Progress: func(p runner.Progress) {
			if p.Kind == runner.JobDone && p.Done >= 10 {
				cancel() // kill the campaign after ~10 trials committed
			}
		},
	})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted campaign returned %v, want context.Canceled", err)
	}
	j.Close()

	// Phase 2: reopen and resume to completion.
	j2, err := runner.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() == 0 {
		t.Fatal("journal empty after interrupted run")
	}
	resumed, err := RunContext(context.Background(), cfg, Options{Workers: 2, Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	got := reportBytes(t, resumed)
	if !bytes.Equal(want, got) {
		t.Fatalf("resumed report differs from uninterrupted run:\n%s\nvs\n%s", want, got)
	}

	// A third run restoring every trial from the journal must also match.
	j3, err := runner.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.Len() != cfg.Trials {
		t.Fatalf("journal holds %d trials after completion, want %d", j3.Len(), cfg.Trials)
	}
	replayed, err := RunContext(context.Background(), cfg, Options{Workers: 4, Journal: j3})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, reportBytes(t, replayed)) {
		t.Fatal("fully-restored report differs from uninterrupted run")
	}
}

// TestDegradedCampaignDeterministic pins the fault-injected Monte Carlo:
// a fixed (seed, plan) pair produces byte-identical reports for any worker
// count, and failed banks shrink every allocator's capacity.
func TestDegradedCampaignDeterministic(t *testing.T) {
	plan := &faults.Plan{Seed: 5, Events: []faults.Event{
		{Epoch: 0, Kind: faults.BankFail, Bank: 11},
		{Epoch: 0, Kind: faults.CurveNoise, Amplitude: 0.15},
	}}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := resumeConfig(30)
	r1, err := RunContext(context.Background(), cfg, Options{Workers: 1, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	r8, err := RunContext(context.Background(), cfg, Options{Workers: 8, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportBytes(t, r1), reportBytes(t, r8)) {
		t.Fatal("degraded campaign depends on worker count")
	}

	healthy, err := RunContext(context.Background(), cfg, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(reportBytes(t, healthy), reportBytes(t, r1)) {
		t.Fatal("fault plan had no effect on the campaign")
	}
	for i := range r1.Trials {
		if r1.Trials[i].EqualMisses <= 0 {
			t.Fatalf("trial %d: non-positive equal-split misses", i)
		}
	}
}

// TestDegradedResumeMatches combines the two: a checkpointed degraded
// campaign resumes byte-identically, noise draws included (the noise RNG
// keys on (plan seed, trial, core), not on execution order).
func TestDegradedResumeMatches(t *testing.T) {
	plan := &faults.Plan{Seed: 9, Events: []faults.Event{
		{Epoch: 0, Kind: faults.BankFail, Bank: 8},
		{Epoch: 0, Kind: faults.BankFail, Bank: 2},
		{Epoch: 0, Kind: faults.CurveNoise, Amplitude: 0.3},
	}}
	cfg := resumeConfig(24)
	opt := Options{Workers: 3, Faults: plan}
	want, err := RunContext(context.Background(), cfg, opt)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "degraded.journal")
	j, err := runner.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	first := Options{Workers: 3, Faults: plan, Journal: j,
		Progress: func(p runner.Progress) {
			if p.Kind == runner.JobDone && p.Done >= 6 {
				cancel()
			}
		}}
	if _, err := RunContext(ctx, cfg, first); err == nil {
		t.Fatal("interrupted campaign returned nil error")
	}
	cancel()
	j.Close()

	j2, err := runner.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got, err := RunContext(context.Background(), cfg, Options{Workers: 3, Faults: plan, Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportBytes(t, want), reportBytes(t, got)) {
		t.Fatal("resumed degraded report differs")
	}
}

// TestDegradedEqualSplitUsesSurvivingCapacity checks the even split the
// ratios are normalised against shrinks with the failed banks.
func TestDegradedEqualSplitUsesSurvivingCapacity(t *testing.T) {
	plan := &faults.Plan{Events: []faults.Event{{Epoch: 0, Kind: faults.BankFail, Bank: 15}}}
	cfg := resumeConfig(5)
	degraded, err := RunContext(context.Background(), cfg, Options{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := RunContext(context.Background(), cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Same seed, same mixes: the degraded even split has 15 ways per core
	// instead of 16, so its projected misses can only grow.
	worse := false
	for i := range degraded.Trials {
		if degraded.Trials[i].EqualMisses < healthy.Trials[i].EqualMisses {
			t.Fatalf("trial %d: equal-split misses shrank under bank failure", i)
		}
		if degraded.Trials[i].EqualMisses > healthy.Trials[i].EqualMisses {
			worse = true
		}
	}
	if !worse {
		t.Fatal("bank failure never changed the even split's misses")
	}
}
