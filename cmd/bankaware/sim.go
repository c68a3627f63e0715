package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"bankaware/internal/atomicio"
	"bankaware/internal/experiments"
	"bankaware/internal/metrics"
	"bankaware/internal/trace"
)

// runSim drives the detailed full-system simulation: one workload set
// under one policy, the Figs. 8/9 campaign over the paper's eight Table III
// sets (24 simulations, 8 sets x 3 policies), or the Table III
// way-assignment dump.
func runSim(args []string) error {
	fs := flag.NewFlagSet("sim", flag.ExitOnError)
	var (
		cfgPath   = fs.String("config", "", "JSON run-config file (overrides the other selection flags)")
		setIdx    = fs.Int("set", 0, "Table III set number (1-8)")
		workloads = fs.String("workloads", "", "comma-separated list of 8 catalog workloads (alternative to -set)")
		policy    = fs.String("policy", "bankaware", "partitioning policy: none|equal|bankaware")
		instr     = fs.Uint64("instructions", 0, "per-core instruction budget (0 = scale default)")
		scaleName = fs.String("scale", "model", "machine scale: model (1/16) or full (Table I)")
		fig8      = fs.Bool("fig8", false, "run all eight Table III sets under all policies (Figs. 8 and 9)")
		table3    = fs.Bool("table3", false, "print the bank-aware way assignments for the Table III sets")
		showAlloc = fs.Bool("show-allocation", false, "print the final physical allocation (Fig. 5 style)")
		list      = fs.Bool("list", false, "list catalog workloads")
		csvPath   = fs.String("csv", "", "with -fig8: also write per-set rows to this CSV file")
		sh        shared
	)
	sh.register(fs, "parallel", "timeout", "progress", "report", "pprof", "faults", "fidelity")
	fs.Parse(args)
	ss, err := sh.start("sims")
	if err != nil {
		return err
	}
	defer ss.close()

	var rc *experiments.RunConfig
	switch {
	case *list:
		for _, n := range trace.CatalogNames() {
			fmt.Println(n)
		}
		return nil
	case *cfgPath != "":
		if rc, err = experiments.LoadRunConfig(*cfgPath); err != nil {
			return err
		}
	case *table3:
		rows, err := experiments.TableIIIAssignments()
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatTableIII(rows))
		return nil
	case *fig8:
		scale, err := experiments.ParseScale(*scaleName)
		if err != nil {
			return err
		}
		ss.opt.Observe = sh.report != ""
		return simFig8(ss, scale, *instr, sh.report, *csvPath)
	default:
		rc = &experiments.RunConfig{Policy: *policy, Scale: *scaleName, Instructions: *instr}
		switch {
		case *workloads != "":
			rc.Workloads = strings.Split(*workloads, ",")
		case *setIdx >= 1 && *setIdx <= len(experiments.TableIIISets):
			rc.Workloads = experiments.TableIIISets[*setIdx-1][:]
		default:
			return errors.New("pass -set 1..8 or -workloads (see -list)")
		}
		if err := rc.Validate(); err != nil {
			return err
		}
	}
	// The -fidelity flag overrides the config file's fidelity when set.
	if sh.fidelity != "" {
		rc.Fidelity = sh.fidelity
	}
	return simRun(ss, rc, sh.report, *showAlloc)
}

// simFig8 runs the Figs. 8/9 campaign and prints it, writing the report
// and the per-set CSV when their paths are set.
func simFig8(ss *session, scale experiments.Scale, instructions uint64, reportPath, csvPath string) error {
	start := time.Now()
	r, err := experiments.RunFig8Fig9Context(ss.ctx, scale, instructions, ss.opt)
	if err != nil {
		return err
	}
	fmt.Printf("Relative miss rate and CPI vs No-partitions (Figs. 8 and 9), %.1fs wall:\n",
		time.Since(start).Seconds())
	fmt.Print(r.String())
	if reportPath != "" {
		if err := writeReport(r.Report(), reportPath, "run report"); err != nil {
			return err
		}
	}
	if csvPath != "" {
		if err := atomicio.WriteFile(csvPath, func(w io.Writer) error { return experiments.WriteFig8CSV(w, r) }); err != nil {
			return err
		}
		fmt.Printf("wrote CSV to %s\n", csvPath)
	}
	return nil
}

// simRun executes the one simulation rc describes under the campaign
// units' protocol and prints its result, plus the final allocation with
// showAlloc. The run is observed when a report is requested or the debug
// server is up, whose registry then receives the run's live metrics.
func simRun(ss *session, rc *experiments.RunConfig, reportPath string, showAlloc bool) error {
	fidelity, err := experiments.ParseFidelity(rc.Fidelity)
	if err != nil {
		return err
	}
	cfg, policy, specs, budget, err := rc.Build()
	if err != nil {
		return err
	}
	if ss.opt.Faults != nil {
		cfg.Faults = ss.opt.Faults
	}
	sys, err := experiments.NewEngine(fidelity, cfg, policy, specs)
	if err != nil {
		return err
	}
	var rec *metrics.Recorder
	switch {
	case ss.debug != nil:
		rec = &metrics.Recorder{Registry: ss.debug}
	case reportPath != "":
		rec = metrics.NewRecorder()
	}
	run, err := experiments.RunEngine(ss.ctx, sys, rc.Workloads, budget, rec, nil)
	if err != nil {
		return err
	}
	if reportPath != "" {
		rep := metrics.NewReport("simulation")
		rep.Label = policy.Name()
		rep.Fidelity = experiments.FidelityTag(fidelity)
		rep.Runs = append(rep.Runs, run.Report)
		if err := writeReport(rep, reportPath, "run report"); err != nil {
			return err
		}
	}
	fmt.Print(run.Result.String())
	if showAlloc {
		fmt.Println("\nfinal allocation:")
		fmt.Print(sys.Allocation().String())
	}
	return nil
}
