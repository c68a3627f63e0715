package stats_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"bankaware/internal/stats"
	"bankaware/internal/trace"
)

// geometricFloat is Geometric's float formulation: a trial succeeds when
// the draw mapped to [0, 1) by rand.Rand.Float64's formula is below p.
func geometricFloat(src *rand.PCG, p float64) int {
	if p >= 1 {
		return 0
	}
	n := 0
	for !(float64(src.Uint64()<<11>>11)/(1<<53) < p) {
		n++
		if n >= 1<<20 {
			break
		}
	}
	return n
}

// TestGeometricMatchesFloatFormula checks Geometric's integer threshold
// draw by draw against the float test on a twin stream: at p = k/2^53 and
// its float neighbours (including k equal to the very next draw's low 53
// bits, where the two tests are closest), at 0.5, 1/3, every catalog
// workload's gap parameter, and at p just below 1.
func TestGeometricMatchesFloatFormula(t *testing.T) {
	got, ref := stats.NewRNG(7, 9), rand.NewPCG(7, 9)
	check := func(p float64) {
		t.Helper()
		if g, w := got.Geometric(p), geometricFloat(ref, p); g != w {
			t.Fatalf("Geometric(%v) = %d, float formula %d", p, g, w)
		}
	}
	neighbours := func(p float64) []float64 {
		return []float64{math.Nextafter(p, 0), p, math.Nextafter(p, 1)}
	}

	// Tiny thresholds run to the 2^20-trial cap, so they are checked once.
	for _, k := range []float64{1, 2, 3, 1 << 20} {
		for _, p := range neighbours(k / (1 << 53)) {
			check(p)
		}
	}
	ps := []float64{0.5, 1.0 / 3, 1 - 1e-12, math.Nextafter(1, 0)}
	for _, k := range []float64{1 << 50, 1<<52 - 1, 1 << 52, 1<<52 + 1, 3 << 51, 1<<53 - 1} {
		ps = append(ps, neighbours(k/(1<<53))...)
	}
	for _, s := range trace.Catalog() {
		ps = append(ps, 1/(s.GapMeanInstructions()+1))
	}
	for i := 0; i < 300; i++ {
		for _, p := range ps {
			check(p)
		}
		for j := 0; j < 3; j++ {
			peek := *ref
			k := float64(peek.Uint64() << 11 >> 11)
			if p := neighbours(k / (1 << 53))[j]; p > 0 {
				check(p)
			}
		}
	}
	if got.Uint64() != ref.Uint64() {
		t.Fatal("Geometric consumed a different number of draws than the float formula")
	}
}
