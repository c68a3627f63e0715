package core

import (
	"math"
	"testing"
	"testing/quick"

	"bankaware/internal/nuca"
	"bankaware/internal/stats"
	"bankaware/internal/trace"
)

// curveFor converts a catalog spec into a MissCurve scaled to a nominal
// access count, over the full 128-way domain.
func curveFor(name string, accesses float64) MissCurve {
	ratios := trace.MustSpec(name).MissCurve(trace.MaxWays)
	c := make(MissCurve, len(ratios))
	for i, r := range ratios {
		c[i] = r * accesses
	}
	return c
}

func curvesFor(names ...string) []MissCurve {
	out := make([]MissCurve, len(names))
	for i, n := range names {
		out[i] = curveFor(n, 1e6)
	}
	return out
}

// randomMix draws 8 catalog workloads with repetition, like the paper's
// Monte Carlo.
func randomMix(rng *stats.RNG) []MissCurve {
	cat := trace.Catalog()
	out := make([]MissCurve, nuca.NumCores)
	for i := range out {
		s := cat[rng.IntN(len(cat))]
		ratios := s.MissCurve(trace.MaxWays)
		c := make(MissCurve, len(ratios))
		for k, r := range ratios {
			c[k] = r * 1e6
		}
		out[i] = c
	}
	return out
}

func TestUnrestrictedConfigValidate(t *testing.T) {
	cfg := DefaultUnrestricted()
	if err := cfg.Validate(8); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	if err := cfg.Validate(0); err == nil {
		t.Fatal("zero cores accepted")
	}
	bad := cfg
	bad.MinCoreWays = 20
	if err := bad.Validate(8); err == nil {
		t.Fatal("min*8 > total accepted")
	}
	bad = cfg
	bad.MaxCoreWays = 10
	if err := bad.Validate(8); err == nil {
		t.Fatal("cap below absorbable accepted")
	}
	bad = cfg
	bad.TotalWays = 0
	if err := bad.Validate(8); err == nil {
		t.Fatal("zero total accepted")
	}
	bad = cfg
	bad.MinCoreWays = -1
	if err := bad.Validate(8); err == nil {
		t.Fatal("negative min accepted")
	}
}

func TestUnrestrictedAssignsAllWays(t *testing.T) {
	curves := curvesFor("sixtrack", "applu", "bzip2", "mcf", "gcc", "eon", "art", "facerec")
	alloc, err := Unrestricted(curves, DefaultUnrestricted())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for c, w := range alloc {
		sum += w
		if w < 2 || w > 72 {
			t.Fatalf("core %d got %d ways, outside [2,72]", c, w)
		}
	}
	if sum != 128 {
		t.Fatalf("assigned %d ways, want 128", sum)
	}
}

func TestUnrestrictedRespectsKnees(t *testing.T) {
	// sixtrack saturates at ~6 ways; bzip2 keeps benefiting to ~45. The
	// allocator must give bzip2 far more than sixtrack, and sixtrack
	// roughly its knee.
	curves := curvesFor("sixtrack", "bzip2", "eon", "eon", "eon", "eon", "eon", "eon")
	alloc, err := Unrestricted(curves, DefaultUnrestricted())
	if err != nil {
		t.Fatal(err)
	}
	if alloc[1] < 3*alloc[0] {
		t.Fatalf("bzip2 %d ways vs sixtrack %d: expected a much larger share", alloc[1], alloc[0])
	}
	if alloc[0] < 4 {
		t.Fatalf("sixtrack got %d ways, below its knee region", alloc[0])
	}
}

func TestUnrestrictedNeverWorseThanEqual(t *testing.T) {
	// Property over random mixes: the idealised partitioner's projected
	// misses never exceed the even split's.
	rng := stats.NewRNG(100, 200)
	for trial := 0; trial < 50; trial++ {
		curves := randomMix(rng)
		alloc, err := Unrestricted(curves, DefaultUnrestricted())
		if err != nil {
			t.Fatal(err)
		}
		equal := make([]int, 8)
		for i := range equal {
			equal[i] = 16
		}
		mu, _ := ProjectTotalMisses(curves, alloc)
		me, _ := ProjectTotalMisses(curves, equal)
		if mu > me+1e-6 {
			t.Fatalf("trial %d: unrestricted %f worse than equal %f", trial, mu, me)
		}
	}
}

func TestUnrestrictedDeterministic(t *testing.T) {
	curves := curvesFor("gzip", "vpr", "gcc", "mcf", "crafty", "parser", "eon", "gap")
	a, err := Unrestricted(curves, DefaultUnrestricted())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Unrestricted(curves, DefaultUnrestricted())
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic allocation: %v vs %v", a, b)
		}
	}
}

func TestUnrestrictedCapBinds(t *testing.T) {
	// One massive consumer against compute-bound peers: the cap must bind.
	curves := curvesFor("facerec", "eon", "eon", "eon", "eon", "eon", "eon", "eon")
	cfg := DefaultUnrestricted()
	cfg.MaxCoreWays = 40
	alloc, err := Unrestricted(curves, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if alloc[0] > 40 {
		t.Fatalf("cap violated: %d", alloc[0])
	}
}

func TestBankAwareConfigValidate(t *testing.T) {
	if err := DefaultBankAware().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	if err := (BankAwareConfig{MinCoreWays: 0, MaxCoreWays: 72}).Validate(); err == nil {
		t.Fatal("zero min accepted")
	}
	if err := (BankAwareConfig{MinCoreWays: 2, MaxCoreWays: 4}).Validate(); err == nil {
		t.Fatal("cap below one bank accepted")
	}
	if err := (BankAwareConfig{MinCoreWays: 5, MaxCoreWays: 72}).Validate(); err == nil {
		t.Fatal("min above half-bank accepted")
	}
}

func TestBankAwareProducesValidAllocation(t *testing.T) {
	curves := curvesFor("apsi", "galgel", "gcc", "mgrid", "applu", "mesa", "facerec", "gzip")
	a, err := BankAware(curves, DefaultBankAware())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.ValidateBankAware(); err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, w := range a.Ways {
		sum += w
	}
	if sum != 128 {
		t.Fatalf("assigned %d ways, want 128", sum)
	}
}

func TestBankAwareInvariantsOverRandomMixes(t *testing.T) {
	// The Fig. 6 algorithm must produce rule-respecting allocations for
	// any mix of catalog workloads.
	rng := stats.NewRNG(7, 77)
	for trial := 0; trial < 200; trial++ {
		curves := randomMix(rng)
		a, err := BankAware(curves, DefaultBankAware())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := a.ValidateBankAware(); err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, a)
		}
		sum := 0
		for c, w := range a.Ways {
			sum += w
			if w > 72 {
				t.Fatalf("trial %d: core %d exceeds cap with %d ways", trial, c, w)
			}
			if w < 2 {
				t.Fatalf("trial %d: core %d starved with %d ways", trial, c, w)
			}
		}
		if sum != 128 {
			t.Fatalf("trial %d: %d ways assigned", trial, sum)
		}
	}
}

func TestBankAwareGivesHeavyCoreCenterBanks(t *testing.T) {
	// facerec (knee ~56 ways) among tiny workloads must collect several
	// Center banks; its full Local bank comes with them (Rule 2).
	curves := curvesFor("facerec", "eon", "eon", "eon", "eon", "eon", "eon", "eon")
	a, err := BankAware(curves, DefaultBankAware())
	if err != nil {
		t.Fatal(err)
	}
	if a.Ways[0] < 40 {
		t.Fatalf("facerec got %d ways, expected a large share", a.Ways[0])
	}
	if a.WaysIn(0, nuca.LocalBankOf(0)) != nuca.WaysPerBank {
		t.Fatal("Rule 2 violated: center-owning core lacks its full Local bank")
	}
	if a.Ways[0]%8 != 0 {
		t.Fatalf("center-complete core has non-bank-multiple ways: %d", a.Ways[0])
	}
}

func TestBankAwarePairSharing(t *testing.T) {
	// Engineered mix: six cores with enormous, steadily improving curves
	// soak up all eight Center banks; cores 2 and 3 are left to the Local
	// phase, where core 2 wants 12 ways and must overflow into core 3's
	// Local bank — the Fig. 5 cores-2/3 situation.
	heavy := func() MissCurve {
		c := make(MissCurve, trace.MaxWays+1)
		for w := range c {
			rem := 72 - w
			if rem < 0 {
				rem = 0
			}
			c[w] = 1e9 * float64(rem) / 72
		}
		return c
	}
	linearTo := func(knee int, scale float64) MissCurve {
		c := make(MissCurve, trace.MaxWays+1)
		for w := range c {
			rem := knee - w
			if rem < 0 {
				rem = 0
			}
			c[w] = scale * float64(rem)
		}
		return c
	}
	curves := []MissCurve{
		heavy(), heavy(),
		linearTo(12, 6e6), // core 2: wants 12 ways
		linearTo(3, 1e5),  // core 3: wants 3 ways
		heavy(), heavy(), heavy(), heavy(),
	}
	a, err := BankAware(curves, DefaultBankAware())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.ValidateBankAware(); err != nil {
		t.Fatal(err)
	}
	// Core 2 must overflow into core 3's Local region: 12/4 split.
	if a.Ways[2] != 12 || a.Ways[3] != 4 {
		t.Logf("allocation:\n%s", a)
		t.Fatalf("pair split = %d/%d, want 12/4", a.Ways[2], a.Ways[3])
	}
	// The shared bank is core 3's (the smaller member cedes ways).
	if a.WaysIn(2, nuca.LocalBankOf(3)) != 4 || a.WaysIn(3, nuca.LocalBankOf(3)) != 4 {
		t.Logf("allocation:\n%s", a)
		t.Fatal("core 3's Local bank should be split 4/4 between cores 2 and 3")
	}
	if a.WaysIn(2, nuca.LocalBankOf(2)) != 8 {
		t.Fatal("core 2 should keep its own Local bank whole")
	}
}

func TestBankAwareCloseToUnrestricted(t *testing.T) {
	// The headline Monte Carlo claim: Bank-aware's miss reduction over the
	// even split is close to Unrestricted's (paper: 27% vs 30% on
	// average). Our cliff-heavy synthetic curves make whole-bank
	// granularity a little costlier than the paper's 3-point gap, so
	// demand an average within 8 points and a clear win over Equal.
	rng := stats.NewRNG(31, 41)
	var ratioU, ratioB []float64
	for trial := 0; trial < 120; trial++ {
		curves := randomMix(rng)
		equal := make([]int, 8)
		for i := range equal {
			equal[i] = 16
		}
		me, _ := ProjectTotalMisses(curves, equal)
		if me == 0 {
			continue
		}
		ua, err := Unrestricted(curves, DefaultUnrestricted())
		if err != nil {
			t.Fatal(err)
		}
		mu, _ := ProjectTotalMisses(curves, ua)
		ba, err := BankAware(curves, DefaultBankAware())
		if err != nil {
			t.Fatal(err)
		}
		mb, _ := ProjectTotalMisses(curves, ba.Ways[:])
		ratioU = append(ratioU, mu/me)
		ratioB = append(ratioB, mb/me)
	}
	avgU, avgB := stats.Mean(ratioU), stats.Mean(ratioB)
	if avgU > 1 || avgB > 1 {
		t.Fatalf("dynamic policies worse than equal on average: U=%.3f B=%.3f", avgU, avgB)
	}
	if avgB-avgU > 0.08 {
		t.Fatalf("bank-aware average ratio %.3f too far above unrestricted %.3f", avgB, avgU)
	}
	if avgB > 0.95 {
		t.Fatalf("bank-aware barely beats equal: %.3f", avgB)
	}
}

func TestBankAwareRejectsBadInput(t *testing.T) {
	if _, err := BankAware(nil, DefaultBankAware()); err == nil {
		t.Fatal("nil curves accepted")
	}
	if _, err := BankAware(make([]MissCurve, 8), BankAwareConfig{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// mustAlloc returns a builder's allocation, panicking on its error.
func mustAlloc(a *Allocation, err error) *Allocation {
	if err != nil {
		panic(err)
	}
	return a
}

func TestEqualAllocation(t *testing.T) {
	a := mustAlloc(EqualAllocation(0))
	if err := a.ValidateBankAware(); err != nil {
		t.Fatalf("equal allocation violates bank rules: %v", err)
	}
	for c := 0; c < nuca.NumCores; c++ {
		if a.Ways[c] != 16 {
			t.Fatalf("core %d has %d ways, want 16", c, a.Ways[c])
		}
		if a.WaysIn(c, nuca.LocalBankOf(c)) != 8 {
			t.Fatalf("core %d lacks its Local bank", c)
		}
		if len(a.BanksOf(c)) != 2 {
			t.Fatalf("core %d spans %d banks, want 2", c, len(a.BanksOf(c)))
		}
	}
}

func TestNoPartitionAllocation(t *testing.T) {
	a := mustAlloc(NoPartitionAllocation(0))
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if !a.Hashed {
		t.Fatal("shared allocation not hashed")
	}
	for b := 0; b < nuca.NumBanks; b++ {
		for w := 0; w < nuca.WaysPerBank; w++ {
			if a.WayOwners[b][w].Count() != nuca.NumCores {
				t.Fatalf("bank %d way %d not fully shared", b, w)
			}
		}
	}
	if a.Ways[0] != 128 {
		t.Fatalf("shared core way count = %d, want 128", a.Ways[0])
	}
}

func TestAllocationValidateCatchesHoles(t *testing.T) {
	a := mustAlloc(EqualAllocation(0))
	a.WayOwners[0][0] = 0
	if err := a.Validate(); err == nil {
		t.Fatal("ownerless way accepted")
	}
	b := mustAlloc(EqualAllocation(0))
	b.Ways[0] = 99
	if err := b.Validate(); err == nil {
		t.Fatal("mismatched Ways accepted")
	}
}

func TestValidateBankAwareCatchesRuleBreaks(t *testing.T) {
	// Rule 1: split a Center bank between two cores.
	a := mustAlloc(EqualAllocation(0))
	// Find the center bank of core 0 and hand one way to core 5.
	for _, b := range a.BanksOf(0) {
		if nuca.BankKind(b) == nuca.Center {
			a.WayOwners[b][0] = a.WayOwners[b][0] &^ a.WayOwners[b][0]
			a.WayOwners[b][0] = 1 << 5
			break
		}
	}
	a.recount()
	if err := a.ValidateBankAware(); err == nil {
		t.Fatal("split Center bank accepted")
	}

	// Rule 3: non-adjacent sharing of a Local bank.
	b := mustAlloc(EqualAllocation(0))
	b.WayOwners[nuca.LocalBankOf(0)][7] = 1 << 5
	b.recount()
	if err := b.ValidateBankAware(); err == nil {
		t.Fatal("non-adjacent Local sharing accepted")
	}

	// Multi-owner way.
	c := mustAlloc(EqualAllocation(0))
	c.WayOwners[0][0] = c.WayOwners[0][0].With(1)
	c.recount()
	if err := c.ValidateBankAware(); err == nil {
		t.Fatal("multi-owner way accepted under bank-aware rules")
	}
}

func TestAllocationString(t *testing.T) {
	s := mustAlloc(EqualAllocation(0)).String()
	if s == "" {
		t.Fatal("empty rendering")
	}
}

func TestPolicies(t *testing.T) {
	curves := curvesFor("gzip", "vpr", "gcc", "mcf", "crafty", "parser", "eon", "gap")
	for _, p := range []Policy{NoPartitionPolicy{}, EqualPolicy{}, NewBankAwarePolicy()} {
		a, err := p.Allocate(curves)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if p.Name() == "" {
			t.Fatal("empty policy name")
		}
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"none", "shared", "equal", "private", "bankaware", "bank-aware"} {
		if _, err := PolicyByName(name); err != nil {
			t.Errorf("PolicyByName(%q): %v", name, err)
		}
	}
	if _, err := PolicyByName("nonesuch"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestOptimalPairSplit(t *testing.T) {
	// a flattens at 11 ways, b at 5: the optimal split is 11/5.
	a := make(MissCurve, 17)
	b := make(MissCurve, 17)
	for i := range a {
		a[i] = math.Max(0, float64(11-i)) * 100
		b[i] = math.Max(0, float64(5-i)) * 100
	}
	s, m := optimalPairSplit(a, b, 2, 2*nuca.WaysPerBank)
	if s != 11 {
		t.Fatalf("split = %d, want 11", s)
	}
	if m != 0 {
		t.Fatalf("misses = %v, want 0", m)
	}
}

func TestOptimalPairSplitRespectsMin(t *testing.T) {
	// b never benefits; a wants everything — but min 2 protects b.
	a := make(MissCurve, 17)
	for i := range a {
		a[i] = float64(100 - i)
	}
	b := make(MissCurve, 17) // flat zero
	s, _ := optimalPairSplit(a, b, 2, 2*nuca.WaysPerBank)
	if s != 14 {
		t.Fatalf("split = %d, want 14 (16 minus the 2-way floor)", s)
	}
}

func TestBankAwareQuickInvariants(t *testing.T) {
	// Property-style fuzz: random synthetic curves (arbitrary shapes, even
	// non-convex) must still yield valid allocations.
	check := func(seed uint64) bool {
		rng := stats.NewRNG(seed, seed^0x5555)
		curves := make([]MissCurve, nuca.NumCores)
		for i := range curves {
			c := make(MissCurve, trace.MaxWays+1)
			v := 1e6 * (1 + rng.Float64())
			for w := range c {
				c[w] = v
				v -= rng.Float64() * v * 0.2 // non-increasing, random shape
			}
			curves[i] = c
		}
		a, err := BankAware(curves, DefaultBankAware())
		if err != nil {
			return false
		}
		return a.ValidateBankAware() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
