package core

import (
	"reflect"
	"testing"

	"bankaware/internal/nuca"
	"bankaware/internal/stats"
)

// checkDegradedAllocation asserts the degraded-allocation contract: no
// capacity in any failed bank, every surviving way owned (the allocation
// sums to the surviving capacity), and the Section III.B structure intact
// on the surviving set.
func checkDegradedAllocation(t *testing.T, a *Allocation, failed nuca.BankSet) {
	t.Helper()
	if a.Failed != failed {
		t.Fatalf("allocation carries failed set %v, want %v", a.Failed, failed)
	}
	for _, b := range failed.Banks() {
		for c := 0; c < nuca.NumCores; c++ {
			if a.WaysIn(c, b) != 0 {
				t.Fatalf("core %d holds %d ways in failed bank %d", c, a.WaysIn(c, b), b)
			}
		}
	}
	total := 0
	for c := 0; c < nuca.NumCores; c++ {
		total += a.Ways[c]
	}
	if want := failed.SurvivingWays(); total != want {
		t.Fatalf("allocations sum to %d ways, want surviving capacity %d (failed %v)", total, want, failed)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("degraded allocation invalid: %v\n%s", err, a)
	}
}

func TestBankAwareDegradedHealthyMatchesBankAware(t *testing.T) {
	rng := stats.NewRNG(100, 101)
	cfg := DefaultBankAware()
	for i := 0; i < 25; i++ {
		curves := randomMix(rng)
		want, err := BankAware(curves, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := BankAwareDegraded(curves, cfg, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("mix %d: healthy degraded path diverged:\n%s\nvs\n%s", i, want, got)
		}
	}
}

// TestBankAwareDegradedCenterFailure is the acceptance property: with one
// Center bank failed the allocator never assigns capacity in it and the
// allocation sums to the surviving 120 ways, for every Center bank and
// many random mixes.
func TestBankAwareDegradedCenterFailure(t *testing.T) {
	rng := stats.NewRNG(7, 8)
	cfg := DefaultBankAware()
	for b := nuca.NumCores; b < nuca.NumBanks; b++ {
		failed := nuca.BankSet(0).With(b)
		for i := 0; i < 10; i++ {
			curves := randomMix(rng)
			a, err := BankAwareDegraded(curves, cfg, nil, failed)
			if err != nil {
				t.Fatalf("bank %d mix %d: %v", b, i, err)
			}
			checkDegradedAllocation(t, a, failed)
			if err := a.ValidateBankAware(); err != nil {
				t.Fatalf("bank %d mix %d: %v\n%s", b, i, err, a)
			}
			for c := 0; c < nuca.NumCores; c++ {
				if a.Ways[c] < cfg.MinCoreWays {
					t.Fatalf("bank %d mix %d: core %d below floor with %d ways", b, i, c, a.Ways[c])
				}
			}
		}
	}
}

// TestBankAwareDegradedLocalFailure fails each Local bank in turn: the
// bank's adjacent core loses its own region and must still be served at or
// above the floor, through degraded pairing or a donated Center bank.
func TestBankAwareDegradedLocalFailure(t *testing.T) {
	rng := stats.NewRNG(21, 22)
	cfg := DefaultBankAware()
	for b := 0; b < nuca.NumCores; b++ {
		failed := nuca.BankSet(0).With(b)
		for i := 0; i < 10; i++ {
			curves := randomMix(rng)
			a, err := BankAwareDegraded(curves, cfg, nil, failed)
			if err != nil {
				t.Fatalf("local bank %d mix %d: %v", b, i, err)
			}
			checkDegradedAllocation(t, a, failed)
			if err := a.ValidateBankAware(); err != nil {
				t.Fatalf("local bank %d mix %d: %v\n%s", b, i, err, a)
			}
			if a.Ways[b] < cfg.MinCoreWays {
				t.Fatalf("local bank %d mix %d: orphaned core %d got %d ways\n%s",
					b, i, b, a.Ways[b], a)
			}
		}
	}
}

// TestBankAwareDegradedRandomFaultSets throws random multi-bank failures at
// the allocator. Success must satisfy the full contract; an error is only
// acceptable as the documented unservable verdict, never a panic or an
// invalid allocation.
func TestBankAwareDegradedRandomFaultSets(t *testing.T) {
	rng := stats.NewRNG(31, 32)
	cfg := DefaultBankAware()
	served := 0
	for i := 0; i < 300; i++ {
		var failed nuca.BankSet
		for n := 1 + rng.IntN(5); n > 0; n-- {
			failed = failed.With(rng.IntN(nuca.NumBanks))
		}
		curves := randomMix(rng)
		a, err := BankAwareDegraded(curves, cfg, nil, failed)
		if err != nil {
			continue
		}
		served++
		checkDegradedAllocation(t, a, failed)
		if err := a.ValidateBankAware(); err != nil {
			t.Fatalf("fault set %v: %v\n%s", failed, err, a)
		}
	}
	if served < 200 {
		t.Fatalf("only %d/300 random fault sets served — degraded fix-up too weak", served)
	}
}

func TestUnrestrictedDegradedClampsCapacity(t *testing.T) {
	rng := stats.NewRNG(41, 42)
	cfg := DefaultUnrestricted()
	for i := 0; i < 50; i++ {
		var failed nuca.BankSet
		for n := rng.IntN(4); n > 0; n-- {
			failed = failed.With(rng.IntN(nuca.NumBanks))
		}
		curves := randomMix(rng)
		ways, err := UnrestrictedDegraded(curves, cfg, failed)
		if err != nil {
			t.Fatalf("fault set %v: %v", failed, err)
		}
		total := 0
		for _, w := range ways {
			total += w
		}
		if want := failed.SurvivingWays(); total != want {
			t.Fatalf("fault set %v: unrestricted assigned %d ways, want %d", failed, total, want)
		}
		if failed == 0 {
			want, err := Unrestricted(curves, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, ways) {
				t.Fatalf("healthy degraded unrestricted diverged: %v vs %v", want, ways)
			}
		}
	}
}

func TestEqualAllocationDegraded(t *testing.T) {
	healthy, err := EqualAllocation(0)
	if err != nil {
		t.Fatal(err)
	}
	checkDegradedAllocation(t, healthy, 0)
	// The healthy split: 16 ways per core, its Local bank plus the nearest
	// Center bank still free when its turn comes.
	center := [nuca.NumCores]int{8, 9, 10, 11, 12, 13, 15, 14}
	for c := 0; c < nuca.NumCores; c++ {
		want := []int{nuca.LocalBankOf(c), center[c]}
		if got := healthy.BanksOf(c); healthy.Ways[c] != 16 || !reflect.DeepEqual(got, want) ||
			healthy.WaysIn(c, want[0]) != nuca.WaysPerBank || healthy.WaysIn(c, want[1]) != nuca.WaysPerBank {
			t.Fatalf("healthy equal split: core %d has %d ways in banks %v, want 16 in %v\n%s", c, healthy.Ways[c], got, want, healthy)
		}
	}
	for _, failed := range []nuca.BankSet{
		nuca.BankSet(0).With(9),
		nuca.BankSet(0).With(3),
		nuca.BankSet(0).With(0).With(8).With(15),
	} {
		a, err := EqualAllocation(failed)
		if err != nil {
			t.Fatalf("fault set %v: %v", failed, err)
		}
		checkDegradedAllocation(t, a, failed)
	}
}

func TestNoPartitionAllocationDegraded(t *testing.T) {
	failed := nuca.BankSet(0).With(2).With(11)
	a, err := NoPartitionAllocation(failed)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Hashed {
		t.Fatal("no-partition allocation not hashed")
	}
	for _, b := range failed.Banks() {
		for c := 0; c < nuca.NumCores; c++ {
			if a.WaysIn(c, b) != 0 {
				t.Fatalf("shared baseline still maps bank %d", b)
			}
		}
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDegradedPoliciesServeFaults drives every registered policy through
// the DegradedPolicy interface: healthy epoch, then a Center-bank failure,
// then recovery — the hysteresis state must never leak an allocation
// referencing a dead bank.
func TestDegradedPoliciesServeFaults(t *testing.T) {
	failed := nuca.BankSet(0).With(10)
	for _, name := range []string{"none", "equal", "bankaware", "bandwidth", "unrestricted"} {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		dp, ok := p.(DegradedPolicy)
		if !ok {
			t.Fatalf("policy %s does not implement DegradedPolicy", name)
		}
		rng := stats.NewRNG(51, 52)
		curves := randomMix(rng)
		for epoch, f := range []nuca.BankSet{0, failed, failed, 0} {
			a, err := dp.AllocateDegraded(curves, f)
			if err != nil {
				t.Fatalf("policy %s epoch %d fault %v: %v", name, epoch, f, err)
			}
			if a.Failed != f {
				t.Fatalf("policy %s epoch %d: allocation failed set %v, want %v", name, epoch, a.Failed, f)
			}
			for _, b := range f.Banks() {
				for c := 0; c < nuca.NumCores; c++ {
					if a.WaysIn(c, b) != 0 {
						t.Fatalf("policy %s epoch %d: core %d in failed bank %d", name, epoch, c, b)
					}
				}
			}
			if err := a.Validate(); err != nil {
				t.Fatalf("policy %s epoch %d: %v\n%s", name, epoch, err, a)
			}
		}
	}
}
