package experiments

import (
	"context"
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkFastSetEvaluation measures one fast set job's engine work: a
// Table III set's three policy units at the 3 M default budget, rotating
// through sets 1-4 at seed 1 on one worker. The profiles are built before
// the timer starts, as a served job finds them cached.
func BenchmarkFastSetEvaluation(b *testing.B) {
	ctx := context.Background()
	opt := Options{Seed: 1, Fidelity: FidelityFast, Workers: 1}
	run := func(i int) {
		set := i % 4
		if _, err := RunSetContext(ctx, ScaleModel.Config(), set+1,
			TableIIISets[set][:], ScaleModel.DefaultInstructions(), opt); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		run(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(i)
	}
}

// BenchmarkEngineFig8Campaign measures the detailed-simulation campaign (8
// sets x 3 policies flattened to 24 jobs) under explicit worker bounds.
// Results are bit-identical across bounds; only wall time changes.
func BenchmarkEngineFig8Campaign(b *testing.B) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := RunFig8Fig9Context(context.Background(),
					ScaleModel, 400_000, Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.GMRelMissBank, "gmRelMissBank")
			}
		})
	}
}
