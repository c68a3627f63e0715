package sim

import (
	"math"
	"testing"

	"bankaware/internal/core"
	"bankaware/internal/nuca"
	"bankaware/internal/trace"
)

// testConfig is a 1/16-scale model of the baseline machine: 128-set banks
// (so one way-equivalent is 128 blocks instead of 2048), a proportionally
// smaller L1, full-set profiling, and epochs long enough to cover several
// sweep revisits of the deepest catalog working sets. Scaling the whole
// geometry keeps working-set build-up affordable without the paper's
// 1B-instruction fast-forward, while preserving every capacity ratio the
// partitioning behaviour depends on.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.BankSets = 128
	cfg.L1 = cacheConfig32Sets()
	cfg.Profiler.Sets = 128
	cfg.Profiler.SampleLog2 = 0
	cfg.EpochCycles = 1_500_000
	return cfg
}

func specsFor(names ...string) []trace.Spec {
	specs := make([]trace.Spec, len(names))
	for i, n := range names {
		specs[i] = trace.MustSpec(n)
	}
	return specs
}

// mixedSet is an interference-heavy mix: streaming workloads next to
// reuse-friendly ones, the situation partitioning exists for.
var mixedSet = []string{"sixtrack", "art", "gzip", "mcf", "crafty", "swim", "mesa", "equake"}

func runPolicy(t *testing.T, policy core.Policy, names []string, instructions uint64) Result {
	t.Helper()
	cfg := testConfig()
	sys, err := New(cfg, policy, specsFor(names...))
	if err != nil {
		t.Fatal(err)
	}
	warm := instructions / 4
	if err := sys.Run(warm); err != nil {
		t.Fatal(err)
	}
	sys.ResetStats()
	if err := sys.Run(instructions); err != nil {
		t.Fatal(err)
	}
	return sys.Result(names)
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.EpochCycles = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero epoch accepted")
	}
	bad = DefaultConfig()
	bad.FlitCycles = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative flit cycles accepted")
	}
	bad = DefaultConfig()
	bad.L1.Sets = 3
	if err := bad.Validate(); err == nil {
		t.Fatal("bad L1 accepted")
	}
}

func TestNewValidation(t *testing.T) {
	cfg := testConfig()
	if _, err := New(cfg, core.EqualPolicy{}, nil); err == nil {
		t.Fatal("wrong spec count accepted")
	}
	if _, err := NewWithStreams(cfg, nil, make([]trace.Stream, nuca.NumCores)); err == nil {
		t.Fatal("nil policy accepted")
	}
	specs := specsFor(mixedSet...)
	specs[0] = trace.Spec{} // invalid
	if _, err := New(cfg, core.EqualPolicy{}, specs); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestRunBasicInvariants(t *testing.T) {
	r := runPolicy(t, core.EqualPolicy{}, mixedSet, 300_000)
	for c, cr := range r.Cores {
		if cr.Instructions < 300_000/2 {
			t.Fatalf("core %d retired only %d instructions", c, cr.Instructions)
		}
		if cr.L1Accesses == 0 || cr.L2Accesses == 0 {
			t.Fatalf("core %d saw no traffic: %+v", c, cr)
		}
		if cr.L2Misses > cr.L2Accesses {
			t.Fatalf("core %d misses exceed accesses: %+v", c, cr)
		}
		if cr.CPI < 0.25 {
			t.Fatalf("core %d CPI %.3f below the width bound", c, cr.CPI)
		}
		if cr.Ways != 16 {
			t.Fatalf("equal policy gave core %d %d ways", c, cr.Ways)
		}
	}
	if r.MissRatio <= 0 || r.MissRatio > 1 {
		t.Fatalf("miss ratio %v out of range", r.MissRatio)
	}
	if r.Policy != "Equal-partitions" {
		t.Fatalf("policy name %q", r.Policy)
	}
}

func TestDeterminism(t *testing.T) {
	a := runPolicy(t, core.NewBankAwarePolicy(), mixedSet, 150_000)
	b := runPolicy(t, core.NewBankAwarePolicy(), mixedSet, 150_000)
	if a.TotalL2Misses != b.TotalL2Misses || a.MeanCPI != b.MeanCPI {
		t.Fatalf("nondeterministic simulation: %v/%v vs %v/%v",
			a.TotalL2Misses, a.MeanCPI, b.TotalL2Misses, b.MeanCPI)
	}
}

func TestPolicyOrderingOnInterferenceMix(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-policy simulation in -short mode")
	}
	// The paper's Fig. 8 / Fig. 9 ordering under the per-benchmark
	// aggregation: Bank-aware <= Equal < No-partitions in relative misses,
	// and both partitioned schemes far below No-partitions in CPI, on a
	// mix where streamers thrash reuse-friendly workloads.
	const instr = 2_500_000
	none := runPolicy(t, core.NoPartitionPolicy{}, mixedSet, instr)
	equal := runPolicy(t, core.EqualPolicy{}, mixedSet, instr)
	bank := runPolicy(t, core.NewBankAwarePolicy(), mixedSet, instr)

	relE, cpiE := equal.PerCoreRelative(none)
	relB, cpiB := bank.PerCoreRelative(none)
	if relE >= 0.95 {
		t.Fatalf("equal relative misses %.3f; partitioning should clearly beat sharing", relE)
	}
	if relB >= 0.95 {
		t.Fatalf("bank-aware relative misses %.3f; should clearly beat sharing", relB)
	}
	if relB > relE+0.05 {
		t.Fatalf("bank-aware (%.3f) materially worse than equal (%.3f)", relB, relE)
	}
	if cpiB >= 0.8 || cpiE >= 0.8 {
		t.Fatalf("partitioned CPI not clearly better: bank=%.3f equal=%.3f", cpiB, cpiE)
	}
	// Bank-aware must also win on system totals against the shared cache.
	relTotB, _ := bank.Relative(none)
	if relTotB >= 1 {
		t.Fatalf("bank-aware total misses ratio %.3f vs none", relTotB)
	}
}

func TestBankAwareAdaptsEpochs(t *testing.T) {
	cfg := testConfig()
	sys, err := New(cfg, core.NewBankAwarePolicy(), specsFor(mixedSet...))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(1_500_000); err != nil {
		t.Fatal(err)
	}
	if sys.Epochs() < 3 {
		t.Fatalf("only %d epochs ran; repartitioning not exercised", sys.Epochs())
	}
	// After profiling, the deep-reach cores (mcf reaches 24 ways) should
	// hold at least as many ways as the small-knee ones under bank-aware.
	a := sys.Allocation()
	if err := a.ValidateBankAware(); err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, w := range a.Ways {
		sum += w
	}
	if sum != 128 {
		t.Fatalf("ways sum %d", sum)
	}
	// mcf (core 3, reach 24) should not be out-ranked by gzip (core 2,
	// knee 12).
	if a.Ways[3] < a.Ways[2] {
		t.Fatalf("mcf got %d ways vs gzip %d; profiler-driven allocation looks wrong\n%s",
			a.Ways[3], a.Ways[2], a)
	}
}

func TestPhasedWorkloadTriggersReallocation(t *testing.T) {
	cfg := testConfig()
	cfg.EpochCycles = 300_000 // several epochs per phase
	// Core 0 flips between a tiny working set and a huge one; the other
	// cores are steady. Bank-aware allocations must differ across phases.
	small := trace.Spec{Name: "small", HitMass: []float64{1, 1}, ColdFrac: 0.02, MemPerKI: 100}
	big := trace.Spec{Name: "big", HitMass: make([]float64, 48), ColdFrac: 0.05, MemPerKI: 100}
	for i := range big.HitMass {
		big.HitMass[i] = 1
	}
	streams := make([]trace.Stream, nuca.NumCores)
	pg, err := trace.NewPhasedGenerator([]trace.Phase{
		{Spec: small, Accesses: 30_000},
		{Spec: big, Accesses: 30_000},
	}, statsRNG(7), trace.GeneratorConfig{BlocksPerWay: 128, Base: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	streams[0] = pg
	for c := 1; c < nuca.NumCores; c++ {
		streams[c] = trace.MustGenerator(trace.MustSpec("crafty"), statsRNG(uint64(c+10)),
			trace.GeneratorConfig{BlocksPerWay: 128, Base: trace.Addr(uint64(c+1) << 41)})
	}
	sys, err := NewWithStreams(cfg, core.NewBankAwarePolicy(), streams)
	if err != nil {
		t.Fatal(err)
	}
	var waysSeen []int
	for k := 0; k < 8; k++ {
		if err := sys.Run(uint64(k+1) * 150_000); err != nil {
			t.Fatal(err)
		}
		waysSeen = append(waysSeen, sys.Allocation().Ways[0])
	}
	min, max := waysSeen[0], waysSeen[0]
	for _, w := range waysSeen {
		if w < min {
			min = w
		}
		if w > max {
			max = w
		}
	}
	if max-min < 8 {
		t.Fatalf("core 0's allocation never moved despite phase changes: %v", waysSeen)
	}
}

// sharingStream alternates writes and reads over a small shared region.
type sharingStream struct {
	base trace.Addr
	i    uint64
}

func (s *sharingStream) Next() trace.Event {
	s.i++
	return trace.Event{
		Gap: 3,
		Access: trace.Access{
			Addr:  s.base + trace.Addr((s.i%64)<<trace.BlockBits),
			Write: s.i%3 == 0,
		},
	}
}

func TestCoherenceTrafficUnderSharing(t *testing.T) {
	cfg := testConfig()
	streams := make([]trace.Stream, nuca.NumCores)
	// Cores 0 and 1 share one region (producer/consumer); the rest run
	// private workloads.
	streams[0] = &sharingStream{base: 1 << 30}
	streams[1] = &sharingStream{base: 1 << 30}
	for c := 2; c < nuca.NumCores; c++ {
		streams[c] = trace.MustGenerator(trace.MustSpec("eon"), statsRNG(uint64(c)),
			trace.GeneratorConfig{BlocksPerWay: 128, Base: trace.Addr(uint64(c+1) << 41)})
	}
	sys, err := NewWithStreams(cfg, core.EqualPolicy{}, streams)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(100_000); err != nil {
		t.Fatal(err)
	}
	ds := sys.dir.Stats()
	if ds.Invalidations == 0 {
		t.Fatalf("sharing produced no invalidations: %+v", ds)
	}
	if ds.CacheTransfers == 0 {
		t.Fatalf("sharing produced no cache-to-cache transfers: %+v", ds)
	}
}

func TestNoCoherenceTrafficWhenPrivate(t *testing.T) {
	cfg := testConfig()
	sys, err := New(cfg, core.EqualPolicy{}, specsFor(mixedSet...))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(60_000); err != nil {
		t.Fatal(err)
	}
	ds := sys.dir.Stats()
	if ds.CacheTransfers != 0 {
		t.Fatalf("private mix caused cache transfers: %+v", ds)
	}
}

func TestResultString(t *testing.T) {
	r := runPolicy(t, core.EqualPolicy{}, mixedSet, 60_000)
	if r.String() == "" {
		t.Fatal("empty result rendering")
	}
}

func TestMemoryBoundCPIHigherThanComputeBound(t *testing.T) {
	heavy := runPolicy(t, core.EqualPolicy{},
		[]string{"art", "art", "art", "art", "art", "art", "art", "art"}, 120_000)
	light := runPolicy(t, core.EqualPolicy{},
		[]string{"eon", "eon", "eon", "eon", "eon", "eon", "eon", "eon"}, 120_000)
	if heavy.MeanCPI <= light.MeanCPI {
		t.Fatalf("memory-bound CPI %.3f <= compute-bound %.3f", heavy.MeanCPI, light.MeanCPI)
	}
}

// TestHashBankDistribution checks the static bank hash spreads a sequential
// block sweep evenly for every bank count the simulator uses (16 healthy,
// fewer under bank failures): a chi-squared statistic across banks must stay
// far below the divergence a biased mix would produce.
func TestHashBankDistribution(t *testing.T) {
	const blocks = 1 << 16
	for _, n := range []int{2, 3, 5, 7, 8, 11, 13, 15, 16} {
		counts := make([]int, n)
		for i := 0; i < blocks; i++ {
			addr := trace.Addr(uint64(i) << trace.BlockBits)
			b := hashBank(addr, n)
			if b < 0 || b >= n {
				t.Fatalf("n=%d: hashBank returned %d out of range", n, b)
			}
			counts[b]++
		}
		expected := float64(blocks) / float64(n)
		chi2 := 0.0
		for _, c := range counts {
			d := float64(c) - expected
			chi2 += d * d / expected
		}
		// 99.9th percentile of chi-squared with n-1 <= 15 degrees of freedom
		// is ~37.7; a sequential sweep through a biased hash blows far past
		// that (an identity mapping scores ~blocks). Use a generous fixed
		// bound that still catches any structural bias.
		if chi2 > 60 {
			t.Fatalf("n=%d: chi-squared %.1f over %d banks (counts %v) — hash is biased", n, chi2, n, counts)
		}
		// No bank may deviate more than 10%% from the fair share.
		for b, c := range counts {
			if math.Abs(float64(c)-expected) > 0.10*expected {
				t.Fatalf("n=%d: bank %d holds %d blocks, fair share %.0f", n, b, c, expected)
			}
		}
	}
}
