package montecarlo

import (
	"context"
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkEngineMonteCarlo measures the Fig. 7 campaign under explicit
// worker bounds of the parallel engine. Results are bit-identical across
// bounds (the determinism tests pin this); only wall time changes, scaling
// near-linearly with cores on multicore hosts.
func BenchmarkEngineMonteCarlo(b *testing.B) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := DefaultConfig()
				cfg.Trials = 1000
				res, err := RunContext(context.Background(), cfg, Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.MeanBankAwareRatio, "bankAwareVsEqual")
			}
		})
	}
}
