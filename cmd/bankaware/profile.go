package main

import (
	"flag"
	"fmt"
	"strings"

	"bankaware/internal/experiments"
	"bankaware/internal/metrics"
	"bankaware/internal/textplot"
)

// runProfile regenerates the MSA-profiling figures: the Fig. 2
// stack-distance histogram example and the Fig. 3 cumulative miss-ratio
// curves of standalone workloads (both without -fig2 or -fig3).
func runProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	var (
		fig2      = fs.Bool("fig2", false, "print the Fig. 2 MSA histogram example")
		fig3      = fs.Bool("fig3", false, "print Fig. 3 cumulative miss-ratio curves")
		workloads = fs.String("workloads", "", "comma-separated workloads for -fig3 (default: the paper's sixtrack,bzip2,applu)")
		accesses  = fs.Int("accesses", experiments.ProfileAccesses, "profiled accesses per workload")
		sh        shared
	)
	sh.register(fs, "parallel", "timeout", "progress", "report", "pprof")
	fs.Parse(args)
	if !*fig2 && !*fig3 {
		*fig2, *fig3 = true, true
	}
	ss, err := sh.start("workloads")
	if err != nil {
		return err
	}
	defer ss.close()

	var rep *metrics.Report
	if sh.report != "" {
		rep = metrics.NewReport("profile")
		rep.Label = "msa-profiles"
		rep.AddSummary("accesses", float64(*accesses))
	}

	if *fig2 {
		h, err := experiments.Fig2Histogram(ss.ctx, *accesses)
		if err != nil {
			return err
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
		curves, err := experiments.Fig3CurvesContext(ss.ctx, names, *accesses, experiments.ScaleModel, ss.opt)
		if err != nil {
			return err
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
		return writeReport(rep, sh.report, "profile report")
	}
	return nil
}
