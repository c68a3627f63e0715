// Command montecarlo reproduces the paper's Fig. 7: a comparative Monte
// Carlo over random 8-workload mixes, reporting each mix's projected miss
// ratio (relative to static even partitions) under the Unrestricted and
// Bank-aware allocators, sorted by the Unrestricted ratio.
//
//	montecarlo -trials 1000
//	montecarlo -trials 1000 -parallel 8 -progress
//	montecarlo -trials 1000 -timeout 30s -csv results.csv
//	montecarlo -trials 1000 -report fig7.json -pprof localhost:6060
//	montecarlo -trials 1000 -faults configs/faults-example.json
//	montecarlo -trials 100000 -resume fig7.journal -report fig7.json
//
// Trials fan out on the parallel engine; for a fixed seed the results are
// bit-identical for any -parallel value. With -resume, completed trials are
// journaled to the given file and a killed campaign picks up where it
// stopped, emitting the same report bytes as an uninterrupted run.
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"bankaware/internal/faults"
	"bankaware/internal/metrics"
	"bankaware/internal/montecarlo"
	"bankaware/internal/runner"
	"bankaware/internal/textplot"
)

func main() {
	cfg := montecarlo.DefaultConfig()
	var (
		trials    = flag.Int("trials", cfg.Trials, "number of random workload mixes")
		seed      = flag.Uint64("seed", cfg.Seed, "random seed")
		csvPath   = flag.String("csv", "", "write per-trial rows to this CSV file")
		chart     = flag.Bool("chart", true, "render the sorted-ratio chart")
		parallel  = flag.Int("parallel", 0, "worker bound (0 = all cores); results do not depend on it")
		timeout   = flag.Duration("timeout", 0, "abort the run after this duration (0 = none)")
		progress  = flag.Bool("progress", false, "render a live progress line on stderr")
		report    = flag.String("report", "", "write the machine-readable JSON run report to this file")
		pprofAddr = flag.String("pprof", "", "serve /debug/pprof, /debug/vars and /debug/metrics on this address while running")
		faultPath = flag.String("faults", "", "degrade every trial with this JSON fault plan's epoch-0 state")
		resume    = flag.String("resume", "", "journal completed trials to this file and resume from it on restart")
		retries   = flag.Int("retries", 0, "extra attempts a failed trial gets before the campaign fails")
	)
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opt := montecarlo.Options{Workers: *parallel, Retries: *retries, RetryBackoff: 100 * time.Millisecond}
	if *progress {
		opt.Progress = runner.Printer(os.Stderr, "trials")
	}
	if *faultPath != "" {
		plan, err := faults.Load(*faultPath)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, plan)
		opt.Faults = plan
	}
	if *resume != "" {
		j, err := runner.OpenJournal(*resume)
		if err != nil {
			fatal(err)
		}
		defer j.Close()
		if n := j.Len(); n > 0 {
			fmt.Fprintf(os.Stderr, "resuming: %d trials already journaled in %s\n", n, *resume)
		}
		opt.Journal = j
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

	cfg.Trials = *trials
	cfg.Seed = *seed
	start := time.Now()
	res, err := montecarlo.RunContext(ctx, cfg, opt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s  (%.2fs wall)\n", res.Summary(), time.Since(start).Seconds())

	if *report != "" {
		if err := res.Report().WriteFile(*report); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote run report to %s\n", *report)
	}

	if *chart {
		var u, b []float64
		for _, t := range res.Trials {
			u = append(u, t.UnrestrictedRatio)
			b = append(b, t.BankAwareRatio)
		}
		fmt.Println("\nRelative miss ratio to fixed-share, trials sorted by Unrestricted (Fig. 7):")
		fmt.Print(textplot.Chart([]textplot.Series{
			{Name: "Unrestricted", Points: u},
			{Name: "Bank-aware", Points: b},
		}, 100, 20))
	}

	if *csvPath != "" {
		if err := writeCSV(*csvPath, res); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d rows to %s\n", len(res.Trials), *csvPath)
	}
}

func writeCSV(path string, res *montecarlo.Results) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	defer w.Flush()
	header := []string{"trial", "unrestricted_ratio", "bankaware_ratio", "equal_misses",
		"w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7"}
	if err := w.Write(header); err != nil {
		return err
	}
	for i, t := range res.Trials {
		row := []string{
			strconv.Itoa(i),
			strconv.FormatFloat(t.UnrestrictedRatio, 'f', 6, 64),
			strconv.FormatFloat(t.BankAwareRatio, 'f', 6, 64),
			strconv.FormatFloat(t.EqualMisses, 'f', 3, 64),
		}
		row = append(row, t.Workloads[:]...)
		if err := w.Write(row); err != nil {
			return err
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "montecarlo:", err)
	os.Exit(1)
}
