package sim

import (
	"math"
	"testing"

	"bankaware/internal/core"
	"bankaware/internal/msa"
	"bankaware/internal/nuca"
	"bankaware/internal/trace"
)

// parallelTestConfig is a small machine that still repartitions several
// times within a short run, so the oracle exercises the profiler barrier.
func parallelTestConfig() Config {
	cfg := DefaultConfig()
	cfg.BankSets = 128
	cfg.L1.Sets = 32
	cfg.Profiler = msa.Config{Sets: 128, MaxWays: 72, SampleLog2: 0, PartialTagBits: 12}
	cfg.EpochCycles = 150_000
	return cfg
}

func parallelTestSpecs(t *testing.T) []trace.Spec {
	t.Helper()
	names := []string{"apsi", "galgel", "gcc", "mgrid", "applu", "mesa", "facerec", "gzip"}
	specs := make([]trace.Spec, len(names))
	for i, n := range names {
		s, err := trace.SpecByName(n)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = s
	}
	return specs
}

// stateDigest snapshots everything Result and the observation layer can see.
type stateDigest struct {
	res      Result
	dir      interface{}
	net      interface{}
	dram     interface{}
	occupied [nuca.NumBanks]int
}

func digest(s *System, workloads []string) stateDigest {
	d := stateDigest{
		res:  s.Result(workloads),
		dir:  s.DirectoryStats(),
		net:  s.NetworkStats(),
		dram: s.DRAMStats(),
	}
	for b := 0; b < nuca.NumBanks; b++ {
		d.occupied[b] = s.banks[b].ValidLines()
	}
	return d
}

// TestParallelOracle steps a sequential and a parallel system through the
// same campaign chunk by chunk and requires every observable — results,
// directory/network/DRAM counters, bank occupancy, profiler state — to
// match after every chunk. Chunked Run calls also exercise the pipeline's
// spill/restart path (prefetched events crossing Run boundaries).
func TestParallelOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-chunk detailed simulation in -short mode")
	}
	cfg := parallelTestConfig()
	specs := parallelTestSpecs(t)
	names := []string{"apsi", "galgel", "gcc", "mgrid", "applu", "mesa", "facerec", "gzip"}

	seq, err := New(cfg, core.NewBankAwarePolicy(), specs)
	if err != nil {
		t.Fatal(err)
	}
	par, err := New(cfg, core.NewBankAwarePolicy(), specs)
	if err != nil {
		t.Fatal(err)
	}
	par.SetSimWorkers(4)

	const chunk = 60_000
	for i := 1; i <= 6; i++ {
		budget := uint64(i * chunk)
		if err := seq.Run(budget); err != nil {
			t.Fatal(err)
		}
		if err := par.Run(budget); err != nil {
			t.Fatal(err)
		}
		ds, dp := digest(seq, names), digest(par, names)
		if ds != dp {
			t.Fatalf("chunk %d: state diverged\nsequential: %+v\nparallel:   %+v", i, ds, dp)
		}
		for c := 0; c < nuca.NumCores; c++ {
			hs, hp := seq.profs[c].Histogram(), par.profs[c].Histogram()
			if len(hs) != len(hp) {
				t.Fatalf("chunk %d core %d: profiler histogram lengths differ", i, c)
			}
			for j := range hs {
				if hs[j] != hp[j] {
					t.Fatalf("chunk %d core %d: profiler histograms diverge at depth %d: %d vs %d",
						i, c, j, hs[j], hp[j])
				}
			}
		}
	}
	if seq.Epochs() < 3 {
		t.Fatalf("oracle ran only %d epochs; raise the budget so repartition barriers are exercised", seq.Epochs())
	}
}

// TestParallelWorkerCountInvariance pins byte-level result equality across
// several lane counts, including more lanes than cores.
func TestParallelWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("detailed simulation in -short mode")
	}
	cfg := parallelTestConfig()
	names := []string{"apsi", "galgel", "gcc", "mgrid", "applu", "mesa", "facerec", "gzip"}
	run := func(workers int) Result {
		sys, err := New(cfg, core.NewBankAwarePolicy(), parallelTestSpecs(t))
		if err != nil {
			t.Fatal(err)
		}
		sys.SetSimWorkers(workers)
		if err := sys.Run(200_000); err != nil {
			t.Fatal(err)
		}
		sys.ResetStats()
		if err := sys.Run(300_000); err != nil {
			t.Fatal(err)
		}
		return sys.Result(names)
	}
	want := run(1)
	for _, w := range []int{2, 3, 8, 16} {
		if got := run(w); got != want {
			t.Fatalf("workers=%d diverged from sequential:\nwant %+v\ngot  %+v", w, got, want)
		}
	}
}

// TestParallelMidRunWorkerSwitch flips a system between sequential and
// parallel execution across Run calls, against a sequential reference on
// the identical chunk schedule (chunk boundaries themselves affect the
// min-clock commit order, so the reference must share them). The spill
// buffer must hand prefetched-but-unconsumed events across every mode
// switch, keeping the trace streams seamless.
func TestParallelMidRunWorkerSwitch(t *testing.T) {
	if testing.Short() {
		t.Skip("detailed simulation in -short mode")
	}
	cfg := parallelTestConfig()
	names := []string{"apsi", "galgel", "gcc", "mgrid", "applu", "mesa", "facerec", "gzip"}
	ref, err := New(cfg, core.NewBankAwarePolicy(), parallelTestSpecs(t))
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := New(cfg, core.NewBankAwarePolicy(), parallelTestSpecs(t))
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range []int{4, 1, 2, 1} {
		budget := uint64(60_000 * (i + 1))
		if err := ref.Run(budget); err != nil {
			t.Fatal(err)
		}
		mixed.SetSimWorkers(w)
		if err := mixed.Run(budget); err != nil {
			t.Fatal(err)
		}
		if got, want := mixed.Result(names), ref.Result(names); got != want {
			t.Fatalf("chunk %d (workers=%d): mixed-mode run diverged:\nwant %+v\ngot  %+v", i, w, want, got)
		}
	}
}

// FuzzParallelExecutorOracle is the differential oracle in fuzz form: an
// arbitrary lane count and an arbitrary chunked budget schedule must leave
// the parallel system in exactly the state of a sequential system driven
// through the same schedule. Chunk boundaries stop and restart the pipeline,
// so the fuzzer also explores the spill buffer's hand-off arithmetic.
func FuzzParallelExecutorOracle(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint16(10_000))
	f.Add(uint8(2), uint8(0), uint16(18_000))
	f.Add(uint8(17), uint8(3), uint16(3_000))
	f.Fuzz(func(t *testing.T, lanes, chunks uint8, chunkInstr uint16) {
		workers := int(lanes%16) + 2
		n := int(chunks%4) + 1
		step := uint64(chunkInstr)%20_000 + 2_000
		cfg := parallelTestConfig()
		cfg.EpochCycles = 40_000
		seq, err := New(cfg, core.NewBankAwarePolicy(), parallelTestSpecs(t))
		if err != nil {
			t.Fatal(err)
		}
		par, err := New(cfg, core.NewBankAwarePolicy(), parallelTestSpecs(t))
		if err != nil {
			t.Fatal(err)
		}
		par.SetSimWorkers(workers)
		names := []string{"apsi", "galgel", "gcc", "mgrid", "applu", "mesa", "facerec", "gzip"}
		for i := 1; i <= n; i++ {
			budget := uint64(i) * step
			if err := seq.Run(budget); err != nil {
				t.Fatal(err)
			}
			if err := par.Run(budget); err != nil {
				t.Fatal(err)
			}
			if ds, dp := digest(seq, names), digest(par, names); ds != dp {
				t.Fatalf("workers=%d chunk %d/%d (step %d): state diverged\nsequential: %+v\nparallel:   %+v",
					workers, i, n, step, ds, dp)
			}
		}
	})
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
