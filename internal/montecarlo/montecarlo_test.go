package montecarlo

import (
	"context"
	"strings"
	"testing"

	"bankaware/internal/trace"
)

func smallConfig(trials int) Config {
	cfg := DefaultConfig()
	cfg.Trials = trials
	return cfg
}

func TestRunValidation(t *testing.T) {
	cfg := smallConfig(0)
	if _, err := RunContext(context.Background(), cfg, Options{}); err == nil {
		t.Fatal("zero trials accepted")
	}
	cfg = smallConfig(1)
	cfg.Workloads = []trace.Spec{}
	if _, err := RunContext(context.Background(), cfg, Options{}); err == nil {
		t.Fatal("empty pool accepted")
	}
	cfg = smallConfig(1)
	cfg.Workloads = []trace.Spec{{}}
	if _, err := RunContext(context.Background(), cfg, Options{}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestRunDeterminism(t *testing.T) {
	a, err := RunContext(context.Background(), smallConfig(50), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := RunContext(context.Background(), smallConfig(50), Options{})
	if a.MeanBankAwareRatio != b.MeanBankAwareRatio || a.MeanUnrestrictedRatio != b.MeanUnrestrictedRatio {
		t.Fatal("nondeterministic results for identical seeds")
	}
	for i := range a.Trials {
		if a.Trials[i] != b.Trials[i] {
			t.Fatalf("trial %d differs", i)
		}
	}
}

func TestTrialsSortedByUnrestricted(t *testing.T) {
	r, err := RunContext(context.Background(), smallConfig(200), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(r.Trials); i++ {
		if r.Trials[i-1].UnrestrictedRatio > r.Trials[i].UnrestrictedRatio {
			t.Fatalf("trials not sorted at %d", i)
		}
	}
}

func TestFig7Envelope(t *testing.T) {
	// The paper's reading of Fig. 7: even partitions and Unrestricted form
	// a performance envelope; Bank-aware falls close to the Unrestricted
	// line with some outliers, and the averages are comparable
	// (paper: 30% vs 27% reduction).
	r, err := RunContext(context.Background(), smallConfig(500), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.MeanUnrestrictedRatio >= 1 || r.MeanBankAwareRatio >= 1 {
		t.Fatalf("dynamic schemes no better than even split: %s", r.Summary())
	}
	// Unrestricted is the envelope: it must beat or match Bank-aware on
	// average, and Bank-aware must stay close.
	if r.MeanBankAwareRatio < r.MeanUnrestrictedRatio-1e-9 {
		t.Fatalf("bank-aware beat its own upper envelope: %s", r.Summary())
	}
	if r.MeanBankAwareRatio-r.MeanUnrestrictedRatio > 0.08 {
		t.Fatalf("bank-aware too far from the envelope: %s", r.Summary())
	}
	// Meaningful reductions (the paper reports ~30%/27%; our synthetic
	// suite lands in the same region).
	if r.MeanUnrestrictedRatio > 0.85 {
		t.Fatalf("unrestricted reduction too weak: %s", r.Summary())
	}
	// Per trial, unrestricted can never be worse than equal (it subsumes
	// it); bank-aware can exceed 1.0 only on rare restriction-bound mixes.
	worseB := 0
	for _, tr := range r.Trials {
		if tr.UnrestrictedRatio > 1+1e-9 {
			t.Fatalf("unrestricted worse than equal on %v", tr.Workloads)
		}
		if tr.BankAwareRatio > 1+1e-9 {
			worseB++
		}
	}
	if frac := float64(worseB) / float64(len(r.Trials)); frac > 0.05 {
		t.Fatalf("bank-aware worse than equal on %.1f%% of trials", frac*100)
	}
}

func TestSummary(t *testing.T) {
	r, err := RunContext(context.Background(), smallConfig(10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := r.Summary()
	if !strings.Contains(s, "trials=10") {
		t.Fatalf("summary = %q", s)
	}
}

func TestCustomPool(t *testing.T) {
	cfg := smallConfig(20)
	cfg.Workloads = []trace.Spec{
		trace.MustSpec("sixtrack"),
		trace.MustSpec("facerec"),
	}
	r, err := RunContext(context.Background(), cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range r.Trials {
		for _, w := range tr.Workloads {
			if w != "sixtrack" && w != "facerec" {
				t.Fatalf("workload %q not from pool", w)
			}
		}
	}
}
