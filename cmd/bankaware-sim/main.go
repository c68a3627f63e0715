// Command bankaware-sim drives the detailed full-system simulation: one
// workload set under one policy, the full Fig. 8 / Fig. 9 sweep over the
// paper's eight Table III sets, or the Table III way-assignment dump.
//
// Examples:
//
//	bankaware-sim -set 6 -policy bankaware -show-allocation
//	bankaware-sim -workloads sixtrack,art,gzip,mcf,crafty,swim,mesa,equake -policy none
//	bankaware-sim -fig8 -parallel 8 -progress
//	bankaware-sim -fig8 -timeout 10m
//	bankaware-sim -fig8 -report fig8.json -pprof localhost:6060
//	bankaware-sim -set 6 -report run.json
//	bankaware-sim -set 6 -faults configs/faults-example.json
//	bankaware-sim -table3
//
// The -fig8 campaign fans its 24 simulations (8 sets x 3 policies) out on
// the parallel engine; results are identical for any -parallel value.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"bankaware/internal/core"
	"bankaware/internal/experiments"
	"bankaware/internal/faults"
	"bankaware/internal/metrics"
	"bankaware/internal/runner"
	"bankaware/internal/trace"
)

func main() {
	var (
		cfgPath   = flag.String("config", "", "JSON run-config file (overrides the other selection flags)")
		setIdx    = flag.Int("set", 0, "Table III set number (1-8)")
		workloads = flag.String("workloads", "", "comma-separated list of 8 catalog workloads (alternative to -set)")
		policy    = flag.String("policy", "bankaware", "partitioning policy: none|equal|bankaware")
		instr     = flag.Uint64("instructions", 0, "per-core instruction budget (0 = scale default)")
		scaleName = flag.String("scale", "model", "machine scale: model (1/16) or full (Table I)")
		fig8      = flag.Bool("fig8", false, "run all eight Table III sets under all policies (Figs. 8 and 9)")
		table3    = flag.Bool("table3", false, "print the bank-aware way assignments for the Table III sets")
		showAlloc = flag.Bool("show-allocation", false, "print the final physical allocation (Fig. 5 style)")
		list      = flag.Bool("list", false, "list catalog workloads")
		csvPath   = flag.String("csv", "", "with -fig8: also write per-set rows to this CSV file")
		markdown  = flag.Bool("markdown", false, "with -fig8: also print a Markdown table")
		parallel  = flag.Int("parallel", 0, "worker bound (0 = all cores); results do not depend on it")
		simWork   = flag.Int("sim-workers", 0, "execution lanes inside each simulation (0/1 = sequential); results do not depend on it")
		timeout   = flag.Duration("timeout", 0, "abort the run after this duration (0 = none)")
		progress  = flag.Bool("progress", false, "render a live progress line on stderr")
		report    = flag.String("report", "", "write the machine-readable JSON run report to this file")
		pprofAddr = flag.String("pprof", "", "serve /debug/pprof, /debug/vars and /debug/metrics on this address while running")
		faultPath = flag.String("faults", "", "inject this JSON fault plan at repartition boundaries")
		fidelStr  = flag.String("fidelity", "", "execution engine: detailed (default) or fast (interval model; see EXPERIMENTS.md for its accuracy envelopes)")
	)
	flag.Parse()
	fidelity, err := experiments.ParseFidelity(*fidelStr)
	if err != nil {
		fatal(err)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opt := experiments.Options{Workers: *parallel, Observe: *report != "", SimWorkers: *simWork, Fidelity: fidelity}
	var plan *faults.Plan
	if *faultPath != "" {
		p, err := faults.Load(*faultPath)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, p)
		plan = p
		opt.Faults = plan
	}
	if *progress {
		opt.Progress = runner.Printer(os.Stderr, "sims")
	}
	// With -pprof, the debug server exposes the single simulation's live
	// registry when there is one, or the campaign's engine counters.
	debugReg := (*metrics.Registry)(nil)
	if *pprofAddr != "" {
		debugReg = metrics.NewRegistry()
		opt.Progress = runner.CountInto(debugReg, opt.Progress)
		srv, err := metrics.StartDebugServer(*pprofAddr, debugReg)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/pprof\n", srv.Addr())
	}

	if *list {
		for _, n := range trace.CatalogNames() {
			fmt.Println(n)
		}
		return
	}

	if *cfgPath != "" {
		rc, err := experiments.LoadRunConfig(*cfgPath)
		if err != nil {
			fatal(err)
		}
		cfg, p, specs, budget, err := rc.Build()
		if err != nil {
			fatal(err)
		}
		if plan != nil {
			cfg.Faults = plan
		}
		// The CLI flag overrides the config file's fidelity when set.
		runFid := fidelity
		if *fidelStr == "" {
			if runFid, err = experiments.ParseFidelity(rc.Fidelity); err != nil {
				fatal(err)
			}
		}
		sys, err := experiments.NewEngine(runFid, cfg, p, specs)
		if err != nil {
			fatal(err)
		}
		runSystem(ctx, sys, budget, *simWork, *report, debugReg, rc.Workloads, runFid, *showAlloc)
		return
	}

	scale := experiments.ScaleModel
	switch *scaleName {
	case "model":
	case "full":
		scale = experiments.ScaleFull
	default:
		fatal(fmt.Errorf("unknown scale %q", *scaleName))
	}
	budget := *instr
	if budget == 0 {
		budget = scale.DefaultInstructions()
	}

	switch {
	case *table3:
		rows, err := experiments.TableIIIAssignments()
		if err != nil {
			fatal(err)
		}
		fmt.Print(experiments.FormatTableIII(rows))
		return
	case *fig8:
		start := time.Now()
		r, err := experiments.RunFig8Fig9Context(ctx, scale, budget, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("Relative miss rate and CPI vs No-partitions (Figs. 8 and 9), %.1fs wall:\n",
			time.Since(start).Seconds())
		fmt.Print(r.String())
		if *report != "" {
			if err := r.Report().WriteFile(*report); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote run report to %s\n", *report)
		}
		if *csvPath != "" {
			f, err := os.Create(*csvPath)
			if err != nil {
				fatal(err)
			}
			if err := experiments.WriteFig8CSV(f, r); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote CSV to %s\n", *csvPath)
		}
		if *markdown {
			fmt.Println()
			if err := experiments.WriteFig8Markdown(os.Stdout, r); err != nil {
				fatal(err)
			}
		}
		return
	}

	names := resolveWorkloads(*setIdx, *workloads)
	p, err := core.PolicyByName(*policy)
	if err != nil {
		fatal(err)
	}
	specs := make([]trace.Spec, len(names))
	for i, n := range names {
		s, err := trace.SpecByName(n)
		if err != nil {
			fatal(err)
		}
		specs[i] = s
	}
	simCfg := scale.Config()
	if plan != nil {
		simCfg.Faults = plan
	}
	sys, err := experiments.NewEngine(fidelity, simCfg, p, specs)
	if err != nil {
		fatal(err)
	}
	runSystem(ctx, sys, budget, *simWork, *report, debugReg, names, fidelity, *showAlloc)
}

// runSystem executes one simulation with simWorkers execution lanes under
// the standard protocol (warm-up, stats reset, measured phase), attaching
// the observation layer when a report is requested or a debug registry is
// being served. It writes the single-run report if asked for and prints
// the result, plus the final allocation with showAlloc.
func runSystem(ctx context.Context, sys experiments.Engine, budget uint64, simWorkers int, reportPath string, debugReg *metrics.Registry, workloads []string, fidelity experiments.Fidelity, showAlloc bool) {
	sys.SetSimWorkers(simWorkers)
	observe := reportPath != "" || debugReg != nil
	if observe {
		var rec *metrics.Recorder
		if debugReg != nil {
			rec = &metrics.Recorder{Registry: debugReg}
		}
		sys.EnableMetrics(rec)
	}
	if err := sys.RunContext(ctx, budget/2); err != nil {
		fatal(err)
	}
	sys.ResetStats()
	if err := sys.RunContext(ctx, budget); err != nil {
		fatal(err)
	}
	if reportPath != "" {
		rep := metrics.NewReport("simulation")
		rep.Label = sys.Policy().Name()
		rep.Fidelity = experiments.FidelityTag(fidelity)
		rep.Runs = append(rep.Runs, sys.RunReport("", workloads))
		if err := rep.WriteFile(reportPath); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote run report to %s\n", reportPath)
	}
	fmt.Print(sys.Result(workloads).String())
	if showAlloc {
		fmt.Println("\nfinal allocation:")
		fmt.Print(sys.Allocation().String())
	}
}

func resolveWorkloads(set int, csv string) []string {
	if csv != "" {
		names := strings.Split(csv, ",")
		if len(names) != 8 {
			fatal(fmt.Errorf("need exactly 8 workloads, got %d", len(names)))
		}
		return names
	}
	if set < 1 || set > len(experiments.TableIIISets) {
		fatal(fmt.Errorf("pass -set 1..8 or -workloads (see -list)"))
	}
	return experiments.TableIIISets[set-1][:]
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bankaware-sim:", err)
	os.Exit(1)
}
