package core

import (
	"testing"

	"bankaware/internal/nuca"
	"bankaware/internal/stats"
)

func TestUnrestrictedAllocationPacksExactly(t *testing.T) {
	ways := []int{48, 8, 8, 8, 8, 8, 8, 32}
	a, err := UnrestrictedAllocation(ways, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	for c, w := range ways {
		if a.Ways[c] != w {
			t.Fatalf("core %d: %d ways placed, want %d", c, a.Ways[c], w)
		}
	}
	// Every core keeps (at least part of) its Local bank when it can.
	if a.WaysIn(0, nuca.LocalBankOf(0)) != nuca.WaysPerBank {
		t.Fatal("big core 0 did not fill its own Local bank first")
	}
}

func TestUnrestrictedAllocationRejectsBadInput(t *testing.T) {
	if _, err := UnrestrictedAllocation([]int{128}, 0); err == nil {
		t.Fatal("wrong core count accepted")
	}
	if _, err := UnrestrictedAllocation([]int{0, 18, 18, 18, 18, 18, 18, 20}, 0); err == nil {
		t.Fatal("zero-way core accepted")
	}
	if _, err := UnrestrictedAllocation([]int{16, 16, 16, 16, 16, 16, 16, 15}, 0); err == nil {
		t.Fatal("wrong total accepted")
	}
}

func TestUnrestrictedAllocationSplitsCenterBanks(t *testing.T) {
	// Odd allocations must be packable even though they violate the
	// bank-aware rules: banks end up split across non-adjacent cores.
	ways := []int{13, 29, 7, 25, 9, 17, 11, 17}
	a, err := UnrestrictedAllocation(ways, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := a.ValidateBankAware(); err == nil {
		t.Log("note: this particular packing happened to satisfy the bank rules")
	}
	for c, w := range ways {
		if a.Ways[c] != w {
			t.Fatalf("core %d: %d placed, want %d", c, a.Ways[c], w)
		}
	}
}

func TestUnrestrictedPolicyAllocates(t *testing.T) {
	p := NewUnrestrictedPolicy()
	if p.Name() != "Unrestricted" {
		t.Fatalf("name %q", p.Name())
	}
	curves := curvesFor("sixtrack", "bzip2", "mcf", "art", "gcc", "eon", "facerec", "gzip")
	a, err := p.Allocate(curves)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	// Identical curves: hysteresis returns the cached allocation.
	b, err := p.Allocate(curves)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("stable epoch churned the allocation")
	}
}

func TestUnrestrictedPolicyNeverWorseProjectionThanBankAware(t *testing.T) {
	rng := stats.NewRNG(5, 15)
	for trial := 0; trial < 40; trial++ {
		curves := randomMix(rng)
		u, err := NewUnrestrictedPolicy().Allocate(curves)
		if err != nil {
			t.Fatal(err)
		}
		ba, err := BankAware(curves, DefaultBankAware())
		if err != nil {
			t.Fatal(err)
		}
		mu, _ := ProjectTotalMisses(curves, u.Ways[:])
		mb, _ := ProjectTotalMisses(curves, ba.Ways[:])
		if mu > mb+1e-6 {
			t.Fatalf("trial %d: unrestricted projection %f worse than bank-aware %f", trial, mu, mb)
		}
	}
}
