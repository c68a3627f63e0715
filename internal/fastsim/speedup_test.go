package fastsim_test

import (
	"context"
	"testing"

	"bankaware/internal/benchmarks"
)

// TestFastPathSpeedup times both engines head-to-head on Table III set 1.
// A fast run's cost is its cached micro-replays, nearly flat in run
// length, so its advantage grows with run length; the one-time profiling
// pass (~140 ms/workload, parallel and cached per process) is amortised
// across a campaign, exactly as in real use, by timing the steady state
// after one warm-up construction. At 10M instructions the detailed engine
// took 2.8-3.0 s and the fast path 11-14 ms (206-271x) on a 2-vCPU x86-64
// VM; the assertion floor is the 20x the fidelity tier promises, with the
// margin absorbing loaded CI machines.
func TestFastPathSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second timing run is not a -short test")
	}
	detailed, fast, err := benchmarks.FidelitySpeedup(context.Background(), 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(detailed) / float64(fast)
	t.Logf("detailed %v, fast %v — %.1fx", detailed, fast, ratio)
	if ratio < 20 {
		t.Errorf("fast path speedup %.1fx below the 20x floor (detailed %v, fast %v)", ratio, detailed, fast)
	}
}
