package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bankaware/internal/metrics"
	"bankaware/internal/stats"
	"bankaware/internal/trace"
)

// Every subcommand's -report file is a run report metrics.ReadReport
// accepts.
func TestSubcommandReports(t *testing.T) {
	dir := t.TempDir()
	tr := filepath.Join(dir, "gzip.trace.gz")
	if err := dispatch([]string{"tracer", "-record", tr, "-accesses", "5000"}); err != nil {
		t.Fatal(err)
	}
	for name, args := range map[string]string{
		"sim":          "sim -set 1 -instructions 20000",
		"sim-fig8":     "sim -fig8 -instructions 20000",
		"profile":      "profile -accesses 5000 -workloads gzip",
		"overhead":     "overhead",
		"sweep":        "sweep -aggregation -accesses 5000",
		"montecarlo":   "montecarlo -trials 20 -chart=false",
		"tracer-info":  "tracer -info " + tr,
		"tracer-curve": "tracer -curve " + tr,
	} {
		path := filepath.Join(dir, name+".json")
		if err := dispatch(append(strings.Fields(args), "-report", path)); err != nil {
			t.Errorf("%s: %v", args, err)
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			t.Errorf("%s: %v", args, err)
			continue
		}
		if _, err := metrics.ReadReport(f); err != nil {
			t.Errorf("%s: reading its report: %v", args, err)
		}
		f.Close()
	}
}

// Every run that takes -timeout stops with the deadline error once it
// expires.
func TestTimeoutAborts(t *testing.T) {
	for _, args := range []string{
		"sim -set 1",
		"sim -fig8",
		"profile -fig2",
		"profile -fig3",
		"sweep -aggregation",
		"sweep -ablation profiler",
		"sweep -ablation epoch",
		"sweep -ablation cap",
		"sweep -ablation plru",
		"sweep -ablation strict",
		"montecarlo",
	} {
		err := dispatch(append(strings.Fields(args), "-timeout", "1ns"))
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s -timeout 1ns: err %v, want context.DeadlineExceeded", args, err)
		}
	}
}

func TestUnknownCommandPrintsUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"bankaware-sim"}} {
		err := dispatch(args)
		if err == nil || !strings.Contains(err.Error(), usage) {
			t.Errorf("dispatch(%q): err %v, want the usage text", args, err)
		}
	}
}

// TestIsDefaultIgnoresOutputFlags: -report chooses where output goes, not
// what is computed, so with only it set the command still prints the
// Table II comparison; a model flag selects a custom configuration.
func TestIsDefaultIgnoresOutputFlags(t *testing.T) {
	for args, want := range map[string]bool{
		"":                        true,
		"-report r.json":          true,
		"-tagbits 12":             false,
		"-report r.json -ways 64": false,
	} {
		fs := flag.NewFlagSet("overhead", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.String("report", "", "")
		fs.Int("tagbits", 12, "")
		fs.Int("ways", 72, "")
		if err := fs.Parse(strings.Fields(args)); err != nil {
			t.Fatal(err)
		}
		if got := isDefault(fs); got != want {
			t.Errorf("isDefault(%q) = %v, want %v", args, got, want)
		}
	}
}

// A zero-event recording is a valid trace, and its summary reports zero
// events without NaN ratios, so the JSON report still encodes.
func TestSummarizeEmptyTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.trace.gz")
	g := trace.MustGenerator(trace.MustSpec("gzip"), stats.NewRNG(1, 2), trace.GeneratorConfig{})
	if err := trace.WriteTraceFile(path, g, 0); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.ReadTraceFile(path)
	if err != nil {
		t.Fatalf("reading a zero-event trace: %v", err)
	}
	var out bytes.Buffer
	rep := metrics.NewReport("trace")
	summarize(&out, tr, rep)
	if !strings.Contains(out.String(), "events:          0\n") || strings.Contains(out.String(), "NaN") {
		t.Fatalf("summary:\n%s", out.String())
	}
	if err := rep.WriteFile(filepath.Join(t.TempDir(), "report.json")); err != nil {
		t.Fatalf("writing the report: %v", err)
	}
	if rep.Summary["events"] != 0 {
		t.Fatalf("events summary %v", rep.Summary["events"])
	}
}

func TestSummarizeCountsEvents(t *testing.T) {
	var buf bytes.Buffer
	evs := []trace.Event{
		{Gap: 2, Access: trace.Access{Addr: 0x40, Write: true}},
		{Gap: 4, Access: trace.Access{Addr: 0x80}},
		{Gap: 0, Access: trace.Access{Addr: 0x40}},
		{Gap: 2, Access: trace.Access{Addr: 0xc0}},
	}
	rec := trace.NewRecorder(&buf)
	for _, ev := range evs {
		if err := rec.Record(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep := metrics.NewReport("trace")
	var out bytes.Buffer
	summarize(&out, tr, rep)
	want := map[string]float64{"events": 4, "distinct_blocks": 3, "write_fraction": 0.25, "mean_gap": 2}
	for k, v := range want {
		if rep.Summary[k] != v {
			t.Errorf("%s = %v, want %v", k, rep.Summary[k], v)
		}
	}
}
