package sim_test

import (
	"testing"

	"bankaware/internal/core"
	"bankaware/internal/experiments"
	"bankaware/internal/nuca"
	"bankaware/internal/sim"
	"bankaware/internal/trace"
)

// BenchmarkSystemStep measures the full-system simulator's end-to-end
// inner loop (sim.System.step and everything below it) in fixed
// 100k-instruction chunks on the Table III set-1 mix, and reports
// simulated cycles and instructions per wall-clock second, the throughput
// numbers EXPERIMENTS.md tracks.
func BenchmarkSystemStep(b *testing.B) {
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
	const chunk = 100_000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Run(uint64(i+1) * chunk); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	res := sys.Result(set[:])
	var instr uint64
	var cycles int64
	for _, cr := range res.Cores {
		instr += cr.Instructions
		if cr.Cycles > cycles {
			cycles = cr.Cycles
		}
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(cycles)/sec, "simCycles/sec")
		b.ReportMetric(float64(instr)/sec, "simInstr/sec")
	}
}
