// Command sweep prints the design-space studies of internal/experiments:
// the Fig. 4 bank-aggregation comparison and the ablations (profiler
// budget, epoch length, capacity cap, L2 replacement, strict lookup).
//
//	sweep -aggregation
//	sweep -ablation profiler
//	sweep -ablation epoch -parallel 4 -progress
//	sweep -ablation cap -timeout 2m
//	sweep -ablation epoch -report epoch.json -pprof localhost:6060
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"bankaware/internal/experiments"
	"bankaware/internal/faults"
	"bankaware/internal/metrics"
	"bankaware/internal/runner"
)

func main() {
	var (
		aggregation = flag.Bool("aggregation", false, "compare the Fig. 4 bank-aggregation schemes")
		ablation    = flag.String("ablation", "", "run an ablation: profiler|epoch|cap|plru|strict")
		accesses    = flag.Int("accesses", experiments.SweepAccesses, "accesses for aggregation/profiler studies")
		parallel    = flag.Int("parallel", 0, "worker bound (0 = all cores); results do not depend on it")
		simWork     = flag.Int("sim-workers", 0, "execution lanes inside each simulation (0/1 = sequential); results do not depend on it")
		timeout     = flag.Duration("timeout", 0, "abort the sweep after this duration (0 = none)")
		progress    = flag.Bool("progress", false, "render a live progress line on stderr")
		report      = flag.String("report", "", "write the machine-readable JSON sweep report to this file")
		pprofAddr   = flag.String("pprof", "", "serve /debug/pprof, /debug/vars and /debug/metrics on this address while running")
		faultPath   = flag.String("faults", "", "inject this JSON fault plan into the simulation-backed sweeps")
		fidelStr    = flag.String("fidelity", "", "execution engine for simulation-backed sweeps: detailed (default) or fast (interval model; rejected by ablations whose semantics it cannot reproduce)")
	)
	flag.Parse()
	if !*aggregation && *ablation == "" {
		*aggregation = true
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	fidelity, err := experiments.ParseFidelity(*fidelStr)
	if err != nil {
		fatal(err)
	}
	opt := experiments.Options{Workers: *parallel, SimWorkers: *simWork, Fidelity: fidelity}
	if *faultPath != "" {
		plan, err := faults.Load(*faultPath)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, plan)
		opt.Faults = plan
	}
	if *progress {
		opt.Progress = runner.Printer(os.Stderr, "jobs")
	}
	if *pprofAddr != "" {
		reg := metrics.NewRegistry()
		opt.Progress = runner.CountInto(reg, opt.Progress)
		srv, err := metrics.StartDebugServer(*pprofAddr, reg)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/pprof\n", srv.Addr())
	}

	var rep *metrics.Report
	if *report != "" {
		rep = metrics.NewReport("sweep")
		rep.Label = "aggregation"
		if *ablation != "" {
			rep.Label = "ablation-" + *ablation
		}
	}

	if *aggregation {
		rows, err := experiments.AggregationComparison(*accesses)
		if err != nil {
			fatal(err)
		}
		fmt.Println("Bank aggregation schemes (Fig. 4):")
		fmt.Print(experiments.FormatAggregation(rows))
		for _, r := range rows {
			rep.AddSummary(fmt.Sprintf("agg.%s.miss_ratio", r.Scheme), r.MissRatio)
			rep.AddSummary(fmt.Sprintf("agg.%s.migration_rate", r.Scheme), r.MigrationRate)
			rep.AddSummary(fmt.Sprintf("agg.%s.lookups_per_access", r.Scheme), r.LookupsPerAccess)
		}
	}

	switch *ablation {
	case "":
	case "profiler":
		rows := must(experiments.ProfilerAccuracy(ctx, *accesses))
		fmt.Println("\nProfiler accuracy vs hardware budget (worst curve error vs exact):")
		fmt.Printf("%-12s %-10s %-12s %-12s\n", "sampling", "tag bits", "max error", "kbits/profiler")
		for _, r := range rows {
			fmt.Printf("1-in-%-7d %-10d %-12.4f %-12.1f\n", r.Sampling, r.TagBits, r.MaxError, r.Kbits)
			rep.AddSummary(fmt.Sprintf("profiler.s%d.t%d.max_error", r.Sampling, r.TagBits), r.MaxError)
		}
	case "epoch":
		rows := must(experiments.EpochAblation(ctx, opt))
		fmt.Println("\nEpoch-length sweep (set 6, bank-aware, relative misses vs No-partitions):")
		fmt.Printf("%-14s %-12s %-10s\n", "epoch cycles", "relMisses", "epochs")
		for _, v := range rows {
			fmt.Printf("%-14s %-12.3f %-10d\n", v.Label, v.Result.RelMissBank, v.Result.Bank.Epochs)
			rep.AddSummary(fmt.Sprintf("epoch.%s.rel_miss_bank", v.Label), v.Result.RelMissBank)
			rep.AddSummary(fmt.Sprintf("epoch.%s.epochs", v.Label), float64(v.Result.Bank.Epochs))
		}
	case "cap":
		rows := must(experiments.CapAblation(ctx, opt))
		fmt.Println("\nCapacity-cap sweep (Monte Carlo mean relative miss ratio vs equal):")
		fmt.Printf("%-10s %-14s %-12s\n", "cap ways", "unrestricted", "bank-aware")
		for _, r := range rows {
			fmt.Printf("%-10d %-14.3f %-12.3f\n", r.Ways, r.MeanUnrestrictedRatio, r.MeanBankAwareRatio)
			rep.AddSummary(fmt.Sprintf("cap.%d.mean_unrestricted_ratio", r.Ways), r.MeanUnrestrictedRatio)
			rep.AddSummary(fmt.Sprintf("cap.%d.mean_bankaware_ratio", r.Ways), r.MeanBankAwareRatio)
		}
	case "plru":
		printVariants(rep, "plru", "Replacement-policy ablation (set 5, bank-aware, rel misses vs No-partitions):", "policy",
			must(experiments.ReplacementAblation(ctx, opt)))
	case "strict":
		printVariants(rep, "strict", "Enforcement ablation (set 1, bank-aware, rel misses vs No-partitions):", "lookup",
			must(experiments.LookupAblation(ctx, opt)))
	default:
		fatal(fmt.Errorf("unknown ablation %q (want profiler|epoch|cap|plru|strict)", *ablation))
	}

	if rep != nil {
		if err := rep.WriteFile(*report); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote sweep report to %s\n", *report)
	}
}

// printVariants prints a two-variant set ablation: bank-aware's relative
// misses under each machine variant.
func printVariants(rep *metrics.Report, key, title, labelCol string, rows []experiments.SetVariant) {
	fmt.Println("\n" + title)
	fmt.Printf("%-10s %-12s\n", labelCol, "relMisses")
	for _, v := range rows {
		fmt.Printf("%-10s %-12.3f\n", v.Label, v.Result.RelMissBank)
		rep.AddSummary(fmt.Sprintf("%s.%s.rel_miss_bank", key, v.Label), v.Result.RelMissBank)
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		fatal(err)
	}
	return v
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
