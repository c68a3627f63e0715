package experiments

import (
	"context"
	"fmt"
	"strings"

	"bankaware/internal/cache"
	"bankaware/internal/nuca"
	"bankaware/internal/stats"
	"bankaware/internal/trace"
)

// AggregationRow is one scheme's cost profile in the Fig. 4 comparison:
// how a multi-bank partition behaves under each aggregation policy.
type AggregationRow struct {
	Scheme           nuca.Scheme
	MissRatio        float64
	MigrationRate    float64 // inter-bank moves per access
	LookupsPerAccess float64 // directory probes per access (power proxy)
}

// AggregationComparison drives the same reuse-heavy access stream through a
// four-bank partition aggregated with each Fig. 4 scheme. It demonstrates
// the design argument of Section III.B: Cascade emulates LRU best but
// migrates prohibitively; AddressHash and Parallel never migrate; the
// limited two-level structure (Fig. 4c) keeps migration low while
// preserving most of Cascade's hit behaviour.
func AggregationComparison(ctx context.Context, accesses int) ([]AggregationRow, error) {
	schemes := []nuca.Scheme{nuca.Cascade, nuca.AddressHash, nuca.Parallel, nuca.TwoLevel}
	var rows []AggregationRow
	for _, scheme := range schemes {
		banks := make([]*cache.Bank, 4)
		for i := range banks {
			b, err := cache.NewBank(cache.Config{Sets: 64, Ways: 8})
			if err != nil {
				return nil, err
			}
			banks[i] = b
		}
		agg, err := nuca.NewAggregate(scheme, banks, 0)
		if err != nil {
			return nil, err
		}
		// A workload whose working set nearly fills the aggregate, so
		// hits land in deep banks and migration pressure is realistic.
		spec := trace.Spec{
			Name:     "fig4-probe",
			HitMass:  []float64{0.12, 0.11, 0.10, 0.09, 0.08, 0.07, 0.06, 0.05, 0.04, 0.04, 0.03, 0.03, 0.03, 0.03, 0.02, 0.02},
			ColdFrac: 0.08,
			MemPerKI: 100,
		}
		g, err := trace.NewGenerator(spec, stats.NewRNG(4, 4), trace.GeneratorConfig{BlocksPerWay: 64 * 2})
		if err != nil {
			return nil, err
		}
		for i := 0; i < accesses; i++ {
			if i%65536 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			ev := g.Next()
			agg.Access(ev.Access.Addr, ev.Access.Write)
		}
		s := agg.Stats()
		rows = append(rows, AggregationRow{
			Scheme:           scheme,
			MissRatio:        s.MissRatio(),
			MigrationRate:    s.MigrationRate(),
			LookupsPerAccess: s.LookupsPerAccess(),
		})
	}
	return rows, nil
}

// FormatAggregation renders the Fig. 4 comparison table.
func FormatAggregation(rows []AggregationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-10s %-14s %-14s\n", "scheme", "missratio", "migrations/acc", "lookups/acc")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-10.4f %-14.4f %-14.3f\n",
			r.Scheme, r.MissRatio, r.MigrationRate, r.LookupsPerAccess)
	}
	return b.String()
}
