package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"bankaware/internal/metrics"
	"bankaware/internal/stats"
	"bankaware/internal/trace"
)

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
