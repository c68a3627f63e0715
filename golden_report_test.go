package bankaware_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"bankaware"
)

var updateGolden = flag.Bool("update", false, "rewrite golden run-report files")

// goldenReport runs the pinned fixed-seed campaign: Table III set 1 on the
// model machine with a shortened epoch (so the dynamic policy repartitions
// several times within the budget), observed, and serialised through the
// Runner's report writer.
func goldenReport(t *testing.T, workers int, opts ...bankaware.RunnerOption) []byte {
	t.Helper()
	var buf bytes.Buffer
	r := bankaware.NewRunner(append([]bankaware.RunnerOption{
		bankaware.WithWorkers(workers),
		bankaware.WithReportWriter(&buf),
	}, opts...)...)
	cfg := bankaware.ScaleModel.Config()
	cfg.EpochCycles = 200_000
	if _, err := r.RunSet(cfg, 1, bankaware.TableIIISets[0][:], 300_000); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// goldenFiles pins one report per engine: the same fixed-seed campaign run
// by the detailed simulator and by the interval-model fast tier.
var goldenFiles = []struct {
	fidelity bankaware.Fidelity
	file     string
}{
	{bankaware.FidelityDetailed, "golden-set1-report.json"},
	{bankaware.FidelityFast, "golden-set1-fast-report.json"},
}

// TestGoldenRunReport pins the run-report JSON end to end for each engine:
// schema, field layout, and every value of a fixed-seed campaign. A
// deliberate schema or behaviour change regenerates the files with
// `go test -run Golden -update`; anything else failing here is an
// unintended drift in either engine or the report encoding.
func TestGoldenRunReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full set evaluation in -short mode")
	}
	for _, g := range goldenFiles {
		t.Run(string(g.fidelity), func(t *testing.T) {
			if g.fidelity == bankaware.FidelityFast && runtime.GOARCH != "amd64" {
				t.Skipf("fast golden bytes are pinned on amd64: the Go spec lets %s fuse floating-point multiply-adds, and the fast tier's trajectories are built from them", runtime.GOARCH)
			}
			checkGoldenReport(t, goldenReport(t, 1, bankaware.WithFidelity(g.fidelity)), g.file)
		})
	}
}

// checkGoldenReport compares a report against its golden file (rewriting
// the file first under -update) and checks the acceptance shape.
func checkGoldenReport(t *testing.T, got []byte, file string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		a, errA := bankaware.ReadReport(bytes.NewReader(want))
		b, errB := bankaware.ReadReport(bytes.NewReader(got))
		if errA == nil && errB == nil {
			for _, d := range bankaware.DiffReports(a, b) {
				t.Log(d)
			}
		}
		t.Fatal("run report drifted from golden file (see diff lines above; -update if intended)")
	}

	// The pinned report must demonstrate the acceptance shape: per-epoch
	// per-core series and at least one dynamic partition change.
	rep, err := bankaware.ReadReport(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != bankaware.ReportSchema {
		t.Fatalf("schema %q, want %q", rep.Schema, bankaware.ReportSchema)
	}
	if len(rep.Runs) != 3 {
		t.Fatalf("expected 3 policy runs, got %d", len(rep.Runs))
	}
	for _, run := range rep.Runs {
		if len(run.EpochSeries) < 2 {
			t.Fatalf("run %s: %d epoch samples, want several", run.Name, len(run.EpochSeries))
		}
		for _, s := range run.EpochSeries {
			if len(s.Cores) != 8 {
				t.Fatalf("run %s epoch %d: %d core samples", run.Name, s.Epoch, len(s.Cores))
			}
		}
		if run.Policy == "Bank-aware" {
			dynamic := 0
			for _, ev := range run.PartitionEvents {
				if ev.Epoch > 0 {
					dynamic++
				}
			}
			if dynamic == 0 {
				t.Fatal("bank-aware run recorded no dynamic partition changes")
			}
		}
	}
}

// TestGoldenRunReportWorkerInvariant: the exact bytes of the report must
// not depend on the worker count.
func TestGoldenRunReportWorkerInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("full set evaluation in -short mode")
	}
	serial := goldenReport(t, 1)
	parallel := goldenReport(t, 8)
	if !bytes.Equal(serial, parallel) {
		t.Fatal("report bytes differ between 1 and 8 workers")
	}
}
