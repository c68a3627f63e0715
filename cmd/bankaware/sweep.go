package main

import (
	"flag"
	"fmt"

	"bankaware/internal/experiments"
	"bankaware/internal/metrics"
)

// runSweep prints the design-space studies of internal/experiments: the
// Fig. 4 bank-aggregation comparison (the default) and the ablations
// (profiler budget, epoch length, capacity cap, L2 replacement, strict
// lookup).
func runSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	var (
		aggregation = fs.Bool("aggregation", false, "compare the Fig. 4 bank-aggregation schemes")
		ablation    = fs.String("ablation", "", "run an ablation: profiler|epoch|cap|plru|strict")
		accesses    = fs.Int("accesses", experiments.SweepAccesses, "accesses for aggregation/profiler studies")
		sh          shared
	)
	sh.register(fs, "parallel", "timeout", "progress", "report", "pprof", "faults", "fidelity")
	fs.Parse(args)
	if !*aggregation && *ablation == "" {
		*aggregation = true
	}
	ss, err := sh.start("jobs")
	if err != nil {
		return err
	}
	defer ss.close()
	ctx, opt := ss.ctx, ss.opt

	var rep *metrics.Report
	if sh.report != "" {
		rep = metrics.NewReport("sweep")
		rep.Label = "aggregation"
		if *ablation != "" {
			rep.Label = "ablation-" + *ablation
		}
	}

	if *aggregation {
		rows, err := experiments.AggregationComparison(ctx, *accesses)
		if err != nil {
			return err
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
		rows, err := experiments.ProfilerAccuracy(ctx, *accesses)
		if err != nil {
			return err
		}
		fmt.Println("\nProfiler accuracy vs hardware budget (worst curve error vs exact):")
		fmt.Printf("%-12s %-10s %-12s %-12s\n", "sampling", "tag bits", "max error", "kbits/profiler")
		for _, r := range rows {
			fmt.Printf("1-in-%-7d %-10d %-12.4f %-12.1f\n", r.Sampling, r.TagBits, r.MaxError, r.Kbits)
			rep.AddSummary(fmt.Sprintf("profiler.s%d.t%d.max_error", r.Sampling, r.TagBits), r.MaxError)
		}
	case "epoch":
		rows, err := experiments.EpochAblation(ctx, opt)
		if err != nil {
			return err
		}
		fmt.Println("\nEpoch-length sweep (set 6, bank-aware, relative misses vs No-partitions):")
		fmt.Printf("%-14s %-12s %-10s\n", "epoch cycles", "relMisses", "epochs")
		for _, v := range rows {
			fmt.Printf("%-14s %-12.3f %-10d\n", v.Label, v.Result.RelMissBank, v.Result.Bank.Epochs)
			rep.AddSummary(fmt.Sprintf("epoch.%s.rel_miss_bank", v.Label), v.Result.RelMissBank)
			rep.AddSummary(fmt.Sprintf("epoch.%s.epochs", v.Label), float64(v.Result.Bank.Epochs))
		}
	case "cap":
		rows, err := experiments.CapAblation(ctx, opt)
		if err != nil {
			return err
		}
		fmt.Println("\nCapacity-cap sweep (Monte Carlo mean relative miss ratio vs equal):")
		fmt.Printf("%-10s %-14s %-12s\n", "cap ways", "unrestricted", "bank-aware")
		for _, r := range rows {
			fmt.Printf("%-10d %-14.3f %-12.3f\n", r.Ways, r.MeanUnrestrictedRatio, r.MeanBankAwareRatio)
			rep.AddSummary(fmt.Sprintf("cap.%d.mean_unrestricted_ratio", r.Ways), r.MeanUnrestrictedRatio)
			rep.AddSummary(fmt.Sprintf("cap.%d.mean_bankaware_ratio", r.Ways), r.MeanBankAwareRatio)
		}
	case "plru":
		rows, err := experiments.ReplacementAblation(ctx, opt)
		if err != nil {
			return err
		}
		printVariants(rep, "plru", "Replacement-policy ablation (set 5, bank-aware, rel misses vs No-partitions):", "policy", rows)
	case "strict":
		rows, err := experiments.LookupAblation(ctx, opt)
		if err != nil {
			return err
		}
		printVariants(rep, "strict", "Enforcement ablation (set 1, bank-aware, rel misses vs No-partitions):", "lookup", rows)
	default:
		return fmt.Errorf("unknown ablation %q (want profiler|epoch|cap|plru|strict)", *ablation)
	}

	if rep != nil {
		return writeReport(rep, sh.report, "sweep report")
	}
	return nil
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
