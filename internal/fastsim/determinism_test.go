// Determinism contract for the fast path: like the detailed engine, the
// interval model must emit byte-identical reports for any worker count and
// across repeated runs — execution knobs are never allowed to leak into
// results.
package fastsim_test

import (
	"bytes"
	"context"
	"testing"

	"bankaware/internal/benchmarks"
	"bankaware/internal/experiments"
)

// fastSetReport runs Table III set 1 under the fast path with the given
// worker count and returns the canonical report bytes.
func fastSetReport(tb testing.TB, workers int) []byte {
	tb.Helper()
	res, err := experiments.RunSetContext(context.Background(), accuracyConfig(), 1,
		experiments.TableIIISets[0], benchmarks.FidelityInstructions, experiments.Options{
			Seed:     1,
			Observe:  true,
			Workers:  workers,
			Fidelity: experiments.FidelityFast,
		})
	if err != nil {
		tb.Fatalf("fast set run (workers=%d): %v", workers, err)
	}
	var buf bytes.Buffer
	if err := res.Report().WriteJSON(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestFastPathByteStableAcrossWorkers runs the same fast campaign under
// different worker counts and across repeats; every report must be
// byte-identical.
func TestFastPathByteStableAcrossWorkers(t *testing.T) {
	base := fastSetReport(t, 1)
	if len(base) == 0 {
		t.Fatal("empty report")
	}
	for _, workers := range []int{
		1, // repeat of the baseline
		3,
	} {
		if got := fastSetReport(t, workers); !bytes.Equal(base, got) {
			t.Errorf("report bytes diverge at workers=%d", workers)
		}
	}
}

// TestFastReportStampsFidelity pins the report metadata contract: fast
// runs stamp "fast", detailed runs leave the field empty so pre-fidelity
// report bytes are unchanged.
func TestFastReportStampsFidelity(t *testing.T) {
	ctx := context.Background()
	fast, err := experiments.RunSetContext(ctx, accuracyConfig(), 1,
		experiments.TableIIISets[0], benchmarks.FidelityInstructions,
		experiments.Options{Seed: 1, Fidelity: experiments.FidelityFast})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Fidelity != "fast" {
		t.Errorf("fast set result fidelity = %q, want %q", fast.Fidelity, "fast")
	}
	if rep := fast.Report(); rep.Fidelity != "fast" {
		t.Errorf("fast report fidelity = %q, want %q", rep.Fidelity, "fast")
	}
	det, err := experiments.RunSetContext(ctx, accuracyConfig(), 1,
		experiments.TableIIISets[0], benchmarks.FidelityInstructions,
		experiments.Options{Seed: 1, Fidelity: experiments.FidelityDetailed})
	if err != nil {
		t.Fatal(err)
	}
	if det.Fidelity != "" {
		t.Errorf("detailed set result fidelity = %q, want empty (byte-compatible with pre-fidelity results)", det.Fidelity)
	}
	if rep := det.Report(); rep.Fidelity != "" {
		t.Errorf("detailed report fidelity = %q, want empty", rep.Fidelity)
	}
}
