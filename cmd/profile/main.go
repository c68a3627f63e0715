// Command profile regenerates the MSA-profiling figures: the Fig. 2
// stack-distance histogram example and the Fig. 3 cumulative miss-ratio
// curves of standalone workloads.
//
//	profile -fig2
//	profile -fig3
//	profile -fig3 -workloads mcf,facerec,gzip -parallel 4
//	profile -fig3 -report curves.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"bankaware/internal/experiments"
	"bankaware/internal/metrics"
	"bankaware/internal/runner"
	"bankaware/internal/textplot"
)

func main() {
	var (
		fig2      = flag.Bool("fig2", false, "print the Fig. 2 MSA histogram example")
		fig3      = flag.Bool("fig3", false, "print Fig. 3 cumulative miss-ratio curves")
		workloads = flag.String("workloads", "", "comma-separated workloads for -fig3 (default: the paper's sixtrack,bzip2,applu)")
		accesses  = flag.Int("accesses", experiments.ProfileAccesses, "profiled accesses per workload")
		parallel  = flag.Int("parallel", 0, "worker bound for -fig3 (0 = all cores); results do not depend on it")
		timeout   = flag.Duration("timeout", 0, "abort profiling after this duration (0 = none)")
		progress  = flag.Bool("progress", false, "render a live progress line on stderr")
		report    = flag.String("report", "", "write the profiled histogram/curves as a JSON report to this file")
		pprofAddr = flag.String("pprof", "", "serve /debug/pprof, /debug/vars and /debug/metrics on this address while running")
	)
	flag.Parse()
	if !*fig2 && !*fig3 {
		*fig2, *fig3 = true, true
	}

	var rep *metrics.Report
	if *report != "" {
		rep = metrics.NewReport("profile")
		rep.Label = "msa-profiles"
		rep.AddSummary("accesses", float64(*accesses))
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opt := experiments.Options{Workers: *parallel}
	if *progress {
		opt.Progress = runner.Printer(os.Stderr, "workloads")
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

	if *fig2 {
		h, err := experiments.Fig2Histogram(*accesses)
		if err != nil {
			fatal(err)
		}
		fmt.Println("MSA LRU histogram of an 8-way cache (Fig. 2), C1=MRU .. C8=LRU, C9=misses:")
		labels := make([]string, 9)
		values := make([]float64, 9)
		for i := range h {
			labels[i] = fmt.Sprintf("C%d", i+1)
			values[i] = float64(h[i])
		}
		fmt.Print(textplot.Bars(labels, values, 60))
		fmt.Println()
		rep.AddSeries("fig2_histogram", values)
	}

	if *fig3 {
		names := experiments.Fig3Exemplars
		if *workloads != "" {
			names = strings.Split(*workloads, ",")
		}
		curves, err := experiments.Fig3CurvesContext(ctx, names, *accesses, experiments.ScaleModel, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Println("Projected cumulative miss ratio vs dedicated cache ways (Fig. 3):")
		var series []textplot.Series
		for _, c := range curves {
			series = append(series, textplot.Series{Name: c.Workload, Points: c.Ratio})
			rep.AddSeries("fig3."+c.Workload, c.Ratio)
		}
		fmt.Print(textplot.Chart(series, 100, 20))
		fmt.Println("\nselected points (miss ratio at w ways):")
		fmt.Printf("%-10s %8s %8s %8s %8s %8s %8s\n", "workload", "w=4", "w=8", "w=16", "w=32", "w=48", "w=72")
		for _, c := range curves {
			at := func(w int) float64 {
				if w >= len(c.Ratio) {
					w = len(c.Ratio) - 1
				}
				return c.Ratio[w]
			}
			fmt.Printf("%-10s %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f\n",
				c.Workload, at(4), at(8), at(16), at(32), at(48), at(72))
		}
	}

	if rep != nil {
		if err := rep.WriteFile(*report); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote profile report to %s\n", *report)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "profile:", err)
	os.Exit(1)
}
