package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"bankaware/internal/metrics"
	"bankaware/internal/msa"
	"bankaware/internal/stats"
	"bankaware/internal/textplot"
	"bankaware/internal/trace"
)

// runTracer records, inspects and profiles access traces — the
// trace-driven methodology Mattson's algorithm was built for. Traces are
// gzip-compressed, delta-encoded binary files (see internal/trace).
func runTracer(args []string) error {
	fs := flag.NewFlagSet("tracer", flag.ExitOnError)
	var (
		record   = fs.String("record", "", "record a catalog workload to this trace file")
		workload = fs.String("workload", "gzip", "catalog workload to record")
		accesses = fs.Int("accesses", 1_000_000, "events to record")
		seed     = fs.Uint64("seed", 1, "generator seed")
		bpw      = fs.Int("blocksperway", trace.DefaultBlocksPerWay, "blocks per way-equivalent")
		info     = fs.String("info", "", "print summary statistics of a trace file")
		curve    = fs.String("curve", "", "profile a trace file and print its miss-ratio curve")
		sh       shared
	)
	sh.register(fs, "report", "pprof")
	fs.Parse(args)
	ss, err := sh.start("")
	if err != nil {
		return err
	}
	defer ss.close()

	var rep *metrics.Report
	if sh.report != "" {
		rep = metrics.NewReport("trace")
	}

	switch {
	case *record != "":
		spec, err := trace.SpecByName(*workload)
		if err != nil {
			return err
		}
		g, err := trace.NewGenerator(spec, stats.NewRNG(*seed, *seed^0xabcd), trace.GeneratorConfig{BlocksPerWay: *bpw})
		if err != nil {
			return err
		}
		if err := trace.WriteTraceFile(*record, g, *accesses); err != nil {
			return err
		}
		fmt.Printf("recorded %d events of %s to %s\n", *accesses, *workload, *record)

	case *info != "":
		tr, err := trace.ReadTraceFile(*info)
		if err != nil {
			return err
		}
		if rep != nil {
			rep.Label = *info
		}
		summarize(os.Stdout, tr, rep)

	case *curve != "":
		tr, err := trace.ReadTraceFile(*curve)
		if err != nil {
			return err
		}
		p, err := msa.NewProfiler(msa.Config{Sets: *bpw, MaxWays: 72})
		if err != nil {
			return err
		}
		s := tr.Stream()
		for i := 0; i < tr.Len(); i++ {
			p.Access(s.Next().Access.Addr)
		}
		ratios := p.MissRatioCurve()
		fmt.Println("projected miss-ratio curve (exact profiler, 72-way cap):")
		fmt.Print(textplot.Chart([]textplot.Series{{Name: *curve, Points: ratios}}, 90, 16))
		if rep != nil {
			rep.Label = *curve
		}
		rep.AddSeries("miss_ratio_curve", ratios)

	default:
		fs.Usage()
		return errors.New("tracer needs -record, -info or -curve")
	}

	if rep != nil {
		return writeReport(rep, sh.report, "trace report")
	}
	return nil
}

// summarize prints a trace's event count, footprint, write fraction and
// mean gap, and adds them to rep (which may be nil). An empty trace has no
// ratios, so it reports only its zero counts.
func summarize(w io.Writer, tr *trace.Trace, rep *metrics.Report) {
	writes, gaps := 0, 0
	seen := map[trace.Addr]bool{}
	for i := 0; i < tr.Len(); i++ {
		ev := tr.Event(i)
		if ev.Access.Write {
			writes++
		}
		gaps += ev.Gap
		seen[ev.Access.Addr] = true
	}
	n := float64(tr.Len())
	fmt.Fprintf(w, "events:          %d\n", tr.Len())
	fmt.Fprintf(w, "distinct blocks: %d (%.1f KiB footprint)\n", len(seen), float64(len(seen))*64/1024)
	rep.AddSummary("events", n)
	rep.AddSummary("distinct_blocks", float64(len(seen)))
	if tr.Len() == 0 {
		return
	}
	fmt.Fprintf(w, "write fraction:  %.3f\n", float64(writes)/n)
	fmt.Fprintf(w, "mean gap:        %.2f instructions\n", float64(gaps)/n)
	rep.AddSummary("write_fraction", float64(writes)/n)
	rep.AddSummary("mean_gap", float64(gaps)/n)
}
