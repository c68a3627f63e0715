// Benchmarks of the simulator's own cost: how the parallel engine scales
// the Fig. 7 and Figs. 8/9 campaigns across workers, and the hot-path
// micro-benchmarks. The paper's tables and figures are not benchmarks:
// TestPaperClaims in internal/experiments runs each one and checks it
// against EXPERIMENTS.md.
package bankaware_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"bankaware/internal/benchmarks"
	"bankaware/internal/core"
	"bankaware/internal/experiments"
	"bankaware/internal/montecarlo"
	"bankaware/internal/nuca"
	"bankaware/internal/sim"
	"bankaware/internal/stats"
	"bankaware/internal/trace"
)

// BenchmarkEngineMonteCarlo measures the Fig. 7 campaign under explicit
// worker bounds of the parallel engine. Results are bit-identical across
// bounds (the determinism tests pin this); only wall time changes, scaling
// near-linearly with cores on multicore hosts.
func BenchmarkEngineMonteCarlo(b *testing.B) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := montecarlo.DefaultConfig()
				cfg.Trials = 1000
				res, err := montecarlo.RunContext(context.Background(), cfg,
					montecarlo.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.MeanBankAwareRatio, "bankAwareVsEqual")
			}
		})
	}
}

// BenchmarkEngineFig8Campaign measures the detailed-simulation campaign (8
// sets x 3 policies flattened to 24 jobs) under explicit worker bounds.
func BenchmarkEngineFig8Campaign(b *testing.B) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := experiments.RunFig8Fig9Context(context.Background(),
					experiments.ScaleModel, 400_000, experiments.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.GMRelMissBank, "gmRelMissBank")
			}
		})
	}
}

// BenchmarkFastSetEvaluation measures one fast set job's engine work (the
// body lives in internal/benchmarks, so cmd/bench records it too). Compare
// two commits with `go test -run '^$' -bench FastSetEvaluation -count 10`
// and benchstat.
func BenchmarkFastSetEvaluation(b *testing.B) { benchmarks.FastSetEvaluation(b) }

// ------------------------------------------------------------ micro-benches
//
// The hot-path micro-benchmarks live in internal/benchmarks so the same
// bodies back both `go test -bench` and the cmd/bench perf harness that
// emits BENCH_<pr>.json for the CI regression gate. All of them report
// allocations: the steady-state inner loop is required to stay at
// 0 allocs/op.

// BenchmarkBankAccess measures the way-partitioned cache bank's hot path.
func BenchmarkBankAccess(b *testing.B) { benchmarks.BankAccess(b) }

// BenchmarkProfilerAccess measures the hardware MSA profiler's hot path
// (every access lands in a sampled set — the real stack-distance work).
func BenchmarkProfilerAccess(b *testing.B) { benchmarks.ProfilerAccess(b) }

// BenchmarkProfilerAccessUnsampled measures the 31-in-32 set-skip path.
func BenchmarkProfilerAccessUnsampled(b *testing.B) { benchmarks.ProfilerAccessUnsampled(b) }

// BenchmarkDirectoryAccess measures the MOESI directory's miss/evict churn.
func BenchmarkDirectoryAccess(b *testing.B) { benchmarks.DirectoryAccess(b) }

// BenchmarkSystemStep measures the full simulator inner loop in fixed
// 100k-instruction chunks and reports simulated cycles/instructions per
// second.
func BenchmarkSystemStep(b *testing.B) { benchmarks.SystemStep(b) }

// BenchmarkMSHRFill measures the MSHR allocate/merge/complete/release cycle.
func BenchmarkMSHRFill(b *testing.B) { benchmarks.MSHRFill(b) }

// BenchmarkServiceSubmitThroughput measures the bankawared daemon's durable
// job-intake path under concurrent load: HTTP submit, strict decode, spec-hash
// dedup lookup, group-committed (one fsync per batch) record, queue push.
func BenchmarkServiceSubmitThroughput(b *testing.B) { benchmarks.ServiceSubmitThroughput(b) }

// BenchmarkServiceCachedSubmit measures the content-addressed fast path: a
// duplicate submission answered from the result cache with no fsync or run.
func BenchmarkServiceCachedSubmit(b *testing.B) { benchmarks.ServiceCachedSubmit(b) }

// BenchmarkGeneratorNext measures the stack-distance workload generator.
func BenchmarkGeneratorNext(b *testing.B) {
	g := trace.MustGenerator(trace.MustSpec("bzip2"), stats.NewRNG(5, 6), trace.GeneratorConfig{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

// BenchmarkBankAwareAllocator measures one full Fig. 6 allocation.
func BenchmarkBankAwareAllocator(b *testing.B) {
	cat := trace.Catalog()
	curves := make([]core.MissCurve, nuca.NumCores)
	for i := range curves {
		ratios := cat[i%len(cat)].MissCurve(trace.MaxWays)
		c := make(core.MissCurve, len(ratios))
		for w, r := range ratios {
			c[w] = r * 1e6
		}
		curves[i] = c
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BankAware(curves, core.DefaultBankAware()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput measures full-system simulation speed in
// instructions per benchmark op (fixed 100k-instruction chunks).
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := experiments.ScaleModel.Config()
	specs := make([]trace.Spec, nuca.NumCores)
	set := experiments.TableIIISets[0]
	for i := range specs {
		specs[i] = trace.MustSpec(set[i])
	}
	sys, err := sim.New(cfg, core.NewBankAwarePolicy(), specs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Run(uint64(i+1) * 100_000); err != nil {
			b.Fatal(err)
		}
	}
}
