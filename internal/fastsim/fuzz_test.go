package fastsim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	"bankaware/internal/experiments"
	"bankaware/internal/trace"
)

// FuzzFastPathAccuracy drives randomized differential runs: a fuzzer-chosen
// catalog workload mix, policy and seed runs under both engines, and the
// fast path must (a) stay in a coarse accuracy corridor around the detailed
// result, (b) be byte-identical across repeat runs and (c) give the fuzzed
// unit the same bytes when the mix's three units share one scope, so an
// incomplete window key shows up as a mismatch. The corridor is
// deliberately loose — arbitrary mixes and policies lack committed
// envelopes; the tight per-workload contract lives in
// TestFastPathAccuracyHomogeneous.
func FuzzFastPathAccuracy(f *testing.F) {
	f.Add(uint8(0), uint8(7), uint8(1), uint64(1))
	f.Add(uint8(3), uint8(20), uint8(0), uint64(7))
	f.Add(uint8(12), uint8(12), uint8(2), uint64(42))
	f.Fuzz(func(t *testing.T, w0, w1, policy uint8, seed uint64) {
		names := trace.CatalogNames()
		workloads := make([]string, 8)
		for i := range workloads {
			// Alternate two fuzzer-chosen workloads across the cores.
			pick := w0
			if i%2 == 1 {
				pick = w1
			}
			workloads[i] = names[int(pick)%len(names)]
		}
		if seed == 0 {
			seed = 1
		}
		opt := experiments.Options{Seed: seed, Fidelity: experiments.FidelityFast, Observe: true}
		ctx := context.Background()
		pol := int(policy) % experiments.SetPolicies

		fast, err := experiments.RunSetPolicyContext(ctx, fidelityConfig(), workloads, 300_000, pol, opt)
		if err != nil {
			t.Fatal(err)
		}
		// Byte-stability: the same spec run twice.
		again, err := experiments.RunSetPolicyContext(ctx, fidelityConfig(), workloads, 300_000, pol, opt)
		if err != nil {
			t.Fatal(err)
		}
		b1, err := json.Marshal(fast.Report)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := json.Marshal(again.Report)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("fast report bytes diverge across repeated runs (workloads %v policy %d seed %d)", workloads, pol, seed)
		}
		set, err := experiments.RunSetContext(ctx, fidelityConfig(), 0, workloads, 300_000,
			experiments.Options{Seed: seed, Fidelity: experiments.FidelityFast, Observe: true, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		b3, err := json.Marshal(set.Reports[pol])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b3) {
			t.Fatalf("fast report bytes differ when the set's units share a scope (workloads %v policy %d seed %d)", workloads, pol, seed)
		}

		opt.Fidelity = experiments.FidelityDetailed
		det, err := experiments.RunSetPolicyContext(ctx, fidelityConfig(), workloads, 300_000, pol, opt)
		if err != nil {
			t.Fatal(err)
		}

		dc, fc := det.Result.MeanCPI, fast.Result.MeanCPI
		if pol == 2 {
			// Bank-aware closes a feedback loop over the engine's own miss
			// curves, so the two engines' allocation schedules can
			// genuinely diverge on adversarial mixes and every downstream
			// number then follows its own trajectory. Only collapse
			// detection is sound here (a dead engine, inverted curves,
			// unit mix-ups).
			if dc > 0 && (fc < dc/5 || fc > dc*5) {
				t.Errorf("fast CPI %.4f vs detailed %.4f: outside 5x sanity corridor (workloads %v seed %d)",
					fc, dc, workloads, seed)
			}
		} else {
			// Static allocation schedules (No-partitions, Equal) are
			// identical across engines by construction, so the corridor
			// can be meaningful — still loose, since arbitrary mixes
			// amplify the fast path's structural biases beyond the
			// committed homogeneous envelopes.
			if dc > 0 {
				if relErr := math.Abs(fc-dc) / dc; relErr > 0.6 {
					t.Errorf("fast CPI %.4f vs detailed %.4f: %.0f%% off (workloads %v policy %d seed %d)",
						fc, dc, 100*relErr, workloads, pol, seed)
				}
			}
			if mrErr := math.Abs(fast.Result.MissRatio - det.Result.MissRatio); mrErr > 0.25 {
				t.Errorf("fast miss ratio %.4f vs detailed %.4f (workloads %v policy %d seed %d)",
					fast.Result.MissRatio, det.Result.MissRatio, workloads, pol, seed)
			}
		}
		if fast.Result.MissRatio < 0 || fast.Result.MissRatio > 1 {
			t.Errorf("fast miss ratio %.4f out of [0,1]", fast.Result.MissRatio)
		}
	})
}
