package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"bankaware/internal/montecarlo"
	"bankaware/internal/runner"
	"bankaware/internal/textplot"
)

// runMonteCarlo reproduces the paper's Fig. 7: a comparative Monte Carlo
// over random 8-workload mixes, reporting each mix's projected miss ratio
// (relative to static even partitions) under the Unrestricted and
// Bank-aware allocators, sorted by the Unrestricted ratio. For a fixed
// seed the results are bit-identical for any -parallel value. With
// -resume, completed trials are journaled to the given file and a killed
// campaign picks up where it stopped, emitting the same report bytes as an
// uninterrupted run.
func runMonteCarlo(args []string) error {
	cfg := montecarlo.DefaultConfig()
	fs := flag.NewFlagSet("montecarlo", flag.ExitOnError)
	var (
		trials  = fs.Int("trials", cfg.Trials, "number of random workload mixes")
		seed    = fs.Uint64("seed", cfg.Seed, "random seed")
		csvPath = fs.String("csv", "", "write per-trial rows to this CSV file")
		chart   = fs.Bool("chart", true, "render the sorted-ratio chart")
		resume  = fs.String("resume", "", "journal completed trials to this file and resume from it on restart")
		retries = fs.Int("retries", 0, "extra attempts a failed trial gets before the campaign fails")
		sh      shared
	)
	sh.register(fs, "parallel", "timeout", "progress", "report", "pprof", "faults")
	fs.Parse(args)
	ss, err := sh.start("trials")
	if err != nil {
		return err
	}
	defer ss.close()

	opt := montecarlo.Options{
		Workers: ss.opt.Workers, Progress: ss.opt.Progress, Faults: ss.opt.Faults,
		Retries: *retries, RetryBackoff: 100 * time.Millisecond,
	}
	if *resume != "" {
		j, err := runner.OpenJournal(*resume)
		if err != nil {
			return err
		}
		defer j.Close()
		if n := j.Len(); n > 0 {
			fmt.Fprintf(os.Stderr, "resuming: %d trials already journaled in %s\n", n, *resume)
		}
		opt.Journal = j
	}

	cfg.Trials = *trials
	cfg.Seed = *seed
	start := time.Now()
	res, err := montecarlo.RunContext(ss.ctx, cfg, opt)
	if err != nil {
		return err
	}
	fmt.Printf("%s  (%.2fs wall)\n", res.Summary(), time.Since(start).Seconds())

	if sh.report != "" {
		if err := writeReport(res.Report(), sh.report, "run report"); err != nil {
			return err
		}
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
		if err := writeFile(*csvPath, func(w io.Writer) error { return writeTrialsCSV(w, res) }); err != nil {
			return err
		}
		fmt.Printf("wrote %d rows to %s\n", len(res.Trials), *csvPath)
	}
	return nil
}

// writeTrialsCSV writes one row per trial: its ratios, the equal-share
// misses and the eight workloads.
func writeTrialsCSV(w io.Writer, res *montecarlo.Results) error {
	cw := csv.NewWriter(w)
	header := []string{"trial", "unrestricted_ratio", "bankaware_ratio", "equal_misses",
		"w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7"}
	if err := cw.Write(header); err != nil {
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
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
