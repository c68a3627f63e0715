package sim

import (
	"fmt"
	"strings"

	"bankaware/internal/nuca"
	"bankaware/internal/stats"
)

// CoreResult reports one core's measurement-window activity.
type CoreResult struct {
	Workload     string
	Instructions uint64
	Cycles       int64
	L1Accesses   uint64
	L2Accesses   uint64 // L1 misses that reached the L2
	L2Misses     uint64
	CPI          float64
	Ways         int // ways assigned at the end of the run
}

// Result reports a full run.
type Result struct {
	Policy string
	Cores  [nuca.NumCores]CoreResult
	// TotalL2Accesses and TotalL2Misses aggregate all cores.
	TotalL2Accesses uint64
	TotalL2Misses   uint64
	// MissRatio is total L2 misses / total L2 accesses.
	MissRatio float64
	// MeanCPI is the arithmetic mean of the cores' CPIs (the paper's
	// per-set CPI metric aggregates cores evenly).
	MeanCPI float64
	Epochs  int
}

// String renders a per-core table plus totals.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy=%s epochs=%d\n", r.Policy, r.Epochs)
	fmt.Fprintf(&b, "%-4s %-10s %6s %12s %12s %12s %8s\n",
		"core", "workload", "ways", "l2accesses", "l2misses", "missratio", "cpi")
	for c, cr := range r.Cores {
		fmt.Fprintf(&b, "%-4d %-10s %6d %12d %12d %12.4f %8.3f\n",
			c, cr.Workload, cr.Ways, cr.L2Accesses, cr.L2Misses,
			stats.Ratio(float64(cr.L2Misses), float64(cr.L2Accesses)), cr.CPI)
	}
	fmt.Fprintf(&b, "total: l2accesses=%d l2misses=%d missratio=%.4f meanCPI=%.3f\n",
		r.TotalL2Accesses, r.TotalL2Misses, r.MissRatio, r.MeanCPI)
	return b.String()
}

// Relative compares this result to a baseline, returning (miss ratio
// relative to baseline misses, CPI relative to baseline CPI) computed over
// system totals.
func (r Result) Relative(baseline Result) (relMisses, relCPI float64) {
	relMisses = stats.Ratio(float64(r.TotalL2Misses), float64(baseline.TotalL2Misses))
	relCPI = stats.Ratio(r.MeanCPI, baseline.MeanCPI)
	return relMisses, relCPI
}

// PerCoreRelative compares this result to a baseline per benchmark and
// returns the geometric means of the per-core relative miss counts and
// relative CPIs — the Fig. 8 / Fig. 9 aggregation, where every benchmark
// counts equally regardless of its access volume (the convention of the
// cache-partitioning literature; a low-rate workload whose misses
// partitioning removes entirely matters as much as a streamer whose misses
// nothing can remove).
func (r Result) PerCoreRelative(baseline Result) (relMisses, relCPI float64) {
	var ms, cs []float64
	for c := range r.Cores {
		if baseline.Cores[c].L2Misses > 0 && r.Cores[c].L2Misses > 0 {
			ms = append(ms, float64(r.Cores[c].L2Misses)/float64(baseline.Cores[c].L2Misses))
		}
		if baseline.Cores[c].CPI > 0 && r.Cores[c].CPI > 0 {
			cs = append(cs, r.Cores[c].CPI/baseline.Cores[c].CPI)
		}
	}
	return stats.GeoMean(ms), stats.GeoMean(cs)
}
