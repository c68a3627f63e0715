package experiments

import (
	"context"
	"fmt"
	"strings"

	"bankaware/internal/core"
	"bankaware/internal/msa"
	"bankaware/internal/nuca"
	"bankaware/internal/runner"
	"bankaware/internal/stats"
	"bankaware/internal/trace"
)

// Fig2Histogram reproduces the paper's MSA example (Fig. 2): the LRU
// stack-distance histogram of an application with strong temporal reuse on
// an 8-way cache — counters C1..C8 are hits from MRU to LRU position, C9
// the misses.
func Fig2Histogram(ctx context.Context, accesses int) ([9]uint64, error) {
	// An MRU-heavy synthetic application, like the figure's example.
	spec := trace.Spec{
		Name:     "fig2-example",
		HitMass:  []float64{0.40, 0.20, 0.11, 0.07, 0.05, 0.035, 0.025, 0.02},
		ColdFrac: 0.09,
		MemPerKI: 50,
	}
	const sets = 64
	var out [9]uint64
	p, err := profileStream(ctx, spec, msa.Config{Sets: sets, MaxWays: 8}, stats.NewRNG(2, 1970), sets, accesses)
	if err == nil {
		copy(out[:], p.Histogram())
	}
	return out, err
}

// profileStream feeds the first accesses of spec's stream, drawn from rng
// with blocksPerWay blocks per cache way, into a fresh profiler.
func profileStream(ctx context.Context, spec trace.Spec, cfg msa.Config, rng *stats.RNG, blocksPerWay, accesses int) (*msa.Profiler, error) {
	p, err := msa.NewProfiler(cfg)
	if err != nil {
		return nil, err
	}
	g, err := trace.NewGenerator(spec, rng, trace.GeneratorConfig{BlocksPerWay: blocksPerWay})
	if err != nil {
		return nil, err
	}
	for k := 0; k < accesses; k++ {
		if k%65536 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		p.Access(g.Next().Access.Addr)
	}
	return p, nil
}

// Fig3Exemplars are the workloads of the paper's Fig. 3.
var Fig3Exemplars = []string{"sixtrack", "bzip2", "applu"}

// Fig3Curve holds one workload's projected cumulative miss-ratio curve
// against dedicated cache ways.
type Fig3Curve struct {
	Workload string
	// Ratio[w] is the projected miss ratio with w dedicated ways,
	// w = 0..len-1.
	Ratio []float64
}

// Fig3CurvesContext profiles workloads standalone with the hardware MSA
// profiler (each "executing stand-alone on our baseline CMP using just a
// single core") and projects their cumulative miss-ratio curves, one job
// per workload. Each workload's generator is seeded by its index, so the
// curves are identical for any worker count.
func Fig3CurvesContext(ctx context.Context, names []string, accesses int, scale Scale, opt Options) ([]Fig3Curve, error) {
	simCfg := opt.apply(scale.Config())
	return runner.Map(ctx, runner.Config{Workers: opt.Workers, Progress: opt.Progress},
		len(names), func(ctx context.Context, i int) (Fig3Curve, error) {
			spec, err := trace.SpecByName(names[i])
			if err != nil {
				return Fig3Curve{}, err
			}
			p, err := profileStream(ctx, spec, simCfg.Profiler, stats.NewRNG(uint64(i+1), 42), simCfg.BankSets, accesses)
			if err != nil {
				return Fig3Curve{}, err
			}
			return Fig3Curve{Workload: names[i], Ratio: p.MissRatioCurve()}, nil
		})
}

// TableIIRow is one row of the profiler-overhead table.
type TableIIRow struct {
	Structure string
	Kbits     float64
	PaperKbit float64
}

// TableII evaluates the Table II hardware-overhead model and returns the
// rows alongside the paper's reported values.
func TableII() ([]TableIIRow, float64) {
	o := msa.ComputeOverhead(msa.BaselineOverhead())
	rows := []TableIIRow{
		{"Partial Tags", msa.Kbits(o.PartialTagBits), 54},
		{"LRU Stack Distance Implem.", msa.Kbits(o.LRUStackBits), 27},
		{"Hit Counters", msa.Kbits(o.HitCounterBits), 2.25},
	}
	return rows, msa.PercentOfCache(msa.BaselineOverhead())
}

// TableIIIAssignment is the bank-aware way assignment for one set, the
// quantity Table III reports next to each benchmark.
type TableIIIAssignment struct {
	Set       int
	Workloads []string
	Ways      [nuca.NumCores]int
}

// TableIIIAssignments runs the bank-aware allocator on each set's
// MSA-projected curves (analytic curves scaled by access intensity, the
// same signal the Monte Carlo uses) and reports the per-core way counts.
func TableIIIAssignments() ([]TableIIIAssignment, error) {
	var out []TableIIIAssignment
	for i, set := range TableIIISets {
		curves := make([]core.MissCurve, len(set))
		for c, name := range set {
			spec, err := trace.SpecByName(name)
			if err != nil {
				return nil, err
			}
			ratios := spec.MissCurve(trace.MaxWays)
			mc := make(core.MissCurve, len(ratios))
			for w, r := range ratios {
				mc[w] = r * spec.MemPerKI
			}
			curves[c] = mc
		}
		a, err := core.BankAware(curves, core.DefaultBankAware())
		if err != nil {
			return nil, err
		}
		out = append(out, TableIIIAssignment{Set: i + 1, Workloads: set[:], Ways: a.Ways})
	}
	return out, nil
}

// FormatTableIII renders the assignments like the paper's Table III.
func FormatTableIII(rows []TableIIIAssignment) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "set %d: ", r.Set)
		for c, w := range r.Workloads {
			if c > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s(%d)", w, r.Ways[c])
		}
		b.WriteString("\n")
	}
	return b.String()
}
