package main

import (
	"flag"
	"fmt"

	"bankaware/internal/experiments"
	"bankaware/internal/metrics"
	"bankaware/internal/msa"
)

// runOverhead evaluates the Table II hardware-overhead model of the
// proposed MSA profiler implementation and compares it against the
// paper's reported values; with a model flag set it evaluates that
// configuration instead.
func runOverhead(args []string) error {
	fs := flag.NewFlagSet("overhead", flag.ExitOnError)
	var (
		tagBits   = fs.Int("tagbits", 12, "partial tag width in bits")
		ways      = fs.Int("ways", 72, "maximum assignable ways (9/16 of 128)")
		sampled   = fs.Int("sampledsets", 64, "profiled sets (2048 / sampling rate)")
		ptrBits   = fs.Int("ptrbits", 6, "LRU stack pointer width in bits")
		profilers = fs.Int("profilers", 8, "per-core profilers on chip")
		sh        shared
	)
	sh.register(fs, "report")
	fs.Parse(args)

	var rep *metrics.Report
	if sh.report != "" {
		rep = metrics.NewReport("overhead")
		rep.Label = "table2"
	}

	if isDefault(fs) {
		rows, pct := experiments.TableII()
		fmt.Println("MSA profiler hardware overhead (Table II):")
		fmt.Printf("%-30s %10s %12s\n", "structure", "kbits", "paper kbits")
		total := 0.0
		for _, r := range rows {
			fmt.Printf("%-30s %10.2f %12.2f\n", r.Structure, r.Kbits, r.PaperKbit)
			total += r.Kbits
			rep.AddSummary(keyify(r.Structure)+".kbits", r.Kbits)
			rep.AddSummary(keyify(r.Structure)+".paper_kbits", r.PaperKbit)
		}
		fmt.Printf("%-30s %10.2f\n", "total per profiler", total)
		fmt.Printf("chip overhead (%d profilers): %.3f%% of the 16 MB LLC (paper: ~0.4%%)\n", 8, pct)
		rep.AddSummary("total_kbits_per_profiler", total)
		rep.AddSummary("chip_overhead_pct", pct)
	} else {
		cfg := msa.BaselineOverhead()
		cfg.TagBits = *tagBits
		cfg.Ways = *ways
		cfg.SampledSets = *sampled
		cfg.LRUPointerBits = *ptrBits
		cfg.Profilers = *profilers
		o := msa.ComputeOverhead(cfg)
		fmt.Println(o.String())
		pct := msa.PercentOfCache(cfg)
		fmt.Printf("chip overhead: %.3f%% of the LLC\n", pct)
		rep.AddSummary("total_kbits_per_profiler", msa.Kbits(o.TotalBits()))
		rep.AddSummary("chip_overhead_pct", pct)
	}

	if rep != nil {
		return writeReport(rep, sh.report, "overhead report")
	}
	return nil
}

// isDefault reports whether fs set no flag but -report, so the Table II
// comparison is shown rather than a custom configuration.
func isDefault(fs *flag.FlagSet) bool {
	custom := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name != "report" {
			custom = true
		}
	})
	return !custom
}

// keyify turns a Table II structure label into a summary key.
func keyify(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'A' && r <= 'Z':
			out = append(out, r+('a'-'A'))
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			out = append(out, r)
		case r == ' ':
			out = append(out, '_')
		}
	}
	return string(out)
}
