// Differential-accuracy harness: the interval-model fast path is compared
// against the detailed engine over the full trace catalog and over the
// Figs. 8/9 campaign grid, and every delta must stay inside the envelopes
// committed in testdata/fidelity-envelopes.json. Both engines are
// deterministic, so the deltas are exact constants — the envelopes can be
// (and are) tight. Regenerate them after an intentional model change with
//
//	go test ./internal/fastsim -run TestFastPathAccuracy -update-envelopes
//
// and review the diff like any other golden file.
package fastsim_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"bankaware/internal/experiments"
	"bankaware/internal/sim"
	"bankaware/internal/trace"
)

var updateEnvelopes = flag.Bool("update-envelopes", false,
	"rewrite testdata/fidelity-envelopes.json from freshly measured deltas")

const envelopePath = "testdata/fidelity-envelopes.json"

// workloadEnvelope bounds one homogeneous workload's fast-vs-detailed
// error: CPI is the maximum relative CPI error, MissRatio the maximum
// absolute miss-ratio error.
type workloadEnvelope struct {
	CPI       float64 `json:"cpi"`
	MissRatio float64 `json:"missRatio"`
}

// accuracyEnvelopes is the committed accuracy contract: per-workload
// bounds for the homogeneous catalog sweep and grid-level bounds for the
// Figs. 8/9 campaign ratios.
type accuracyEnvelopes struct {
	Comment     string                      `json:"comment"`
	Homogeneous map[string]workloadEnvelope `json:"homogeneous"`
	Campaign    struct {
		RelMiss float64 `json:"relMiss"`
		RelCPI  float64 `json:"relCPI"`
	} `json:"campaign"`
}

// readEnvelopes returns the committed accuracy envelopes.
func readEnvelopes() (accuracyEnvelopes, error) {
	var env accuracyEnvelopes
	data, err := os.ReadFile(envelopePath)
	if err != nil {
		return env, err
	}
	if err := json.Unmarshal(data, &env); err != nil {
		return env, fmt.Errorf("parsing %s: %w", envelopePath, err)
	}
	return env, nil
}

// fidelityInstructions is the measured-phase budget per core of one
// differential run (the experiments layer prepends a warm-up of half
// this). The committed envelopes are measured at exactly this budget —
// both engines are deterministic, so the deltas are constants of the
// (config, budget) pair.
const fidelityInstructions = 300_000

// fidelityConfig is the golden measurement machine of the differential
// harness: the 1/16-scale config with short epochs so repartitioning
// happens inside the budget.
func fidelityConfig() sim.Config {
	cfg := experiments.ScaleModel.Config()
	cfg.EpochCycles = 200_000
	return cfg
}

// fidelityDelta is one homogeneous workload's fast-vs-detailed outcome.
type fidelityDelta struct {
	Workload string
	// Detailed / fast aggregate outcomes over 8 homogeneous cores.
	DetCPI, FastCPI float64
	DetMR, FastMR   float64
	// CPIErr is the relative CPI error, MRErr the absolute miss-ratio
	// error (fast minus detailed).
	CPIErr, MRErr float64
	// Envelope bounds the errors are graded against.
	CPIBound, MRBound float64
}

// measureHomogeneous runs 8 homogeneous copies of one catalog workload
// under the Equal policy at the given fidelity on the golden config and
// returns the measured-phase result.
func measureHomogeneous(ctx context.Context, name string, f experiments.Fidelity) (sim.Result, error) {
	workloads := make([]string, 8)
	for i := range workloads {
		workloads[i] = name
	}
	run, err := experiments.RunSetPolicyContext(ctx, fidelityConfig(), workloads,
		fidelityInstructions, 1, experiments.Options{Seed: 1, Fidelity: f})
	if err != nil {
		return sim.Result{}, fmt.Errorf("homogeneous %s at %s fidelity: %w", name, f, err)
	}
	return run.Result, nil
}

// fidelitySweep runs the full catalog differentially — every workload
// homogeneously under both engines — and grades each delta against the
// committed envelopes. The returned slice is in catalog order.
func fidelitySweep(ctx context.Context) ([]fidelityDelta, error) {
	env, err := readEnvelopes()
	if err != nil {
		return nil, err
	}
	var out []fidelityDelta
	for _, name := range trace.CatalogNames() {
		det, err := measureHomogeneous(ctx, name, experiments.FidelityDetailed)
		if err != nil {
			return nil, err
		}
		fast, err := measureHomogeneous(ctx, name, experiments.FidelityFast)
		if err != nil {
			return nil, err
		}
		d := fidelityDelta{
			Workload: name,
			DetCPI:   det.MeanCPI, FastCPI: fast.MeanCPI,
			DetMR: det.MissRatio, FastMR: fast.MissRatio,
			CPIErr: (fast.MeanCPI - det.MeanCPI) / det.MeanCPI,
			MRErr:  fast.MissRatio - det.MissRatio,
		}
		if bound, ok := env.Homogeneous[name]; ok {
			d.CPIBound, d.MRBound = bound.CPI, bound.MissRatio
		}
		out = append(out, d)
	}
	return out, nil
}

// fidelityCampaignDeltas runs the Figs. 8/9 grid under both engines and
// returns the worst absolute deviation of the per-set relative-miss and
// relative-CPI ratios — the quantities the paper plots.
func fidelityCampaignDeltas(ctx context.Context) (relMiss, relCPI float64, err error) {
	det, err := experiments.RunFig8Fig9Context(ctx, experiments.ScaleModel, fidelityInstructions,
		experiments.Options{Seed: 1, Workers: 4})
	if err != nil {
		return 0, 0, fmt.Errorf("detailed campaign: %w", err)
	}
	fast, err := experiments.RunFig8Fig9Context(ctx, experiments.ScaleModel, fidelityInstructions,
		experiments.Options{Seed: 1, Workers: 4, Fidelity: experiments.FidelityFast})
	if err != nil {
		return 0, 0, fmt.Errorf("fast campaign: %w", err)
	}
	for i := range det.Sets {
		d, f := det.Sets[i], fast.Sets[i]
		relMiss = math.Max(relMiss, math.Abs(f.RelMissEqual-d.RelMissEqual))
		relMiss = math.Max(relMiss, math.Abs(f.RelMissBank-d.RelMissBank))
		relCPI = math.Max(relCPI, math.Abs(f.RelCPIEqual-d.RelCPIEqual))
		relCPI = math.Max(relCPI, math.Abs(f.RelCPIBank-d.RelCPIBank))
	}
	return relMiss, relCPI, nil
}

// TestFastPathAccuracyHomogeneous sweeps the whole catalog: for every
// workload, 8 homogeneous copies run under both engines and the CPI and
// miss-ratio deltas must stay inside the committed envelopes.
func TestFastPathAccuracyHomogeneous(t *testing.T) {
	deltas, err := fidelitySweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var maxCPI, sumCPI, maxMR, sumMR float64
	for _, d := range deltas {
		maxCPI, sumCPI = math.Max(maxCPI, math.Abs(d.CPIErr)), sumCPI+math.Abs(d.CPIErr)
		maxMR, sumMR = math.Max(maxMR, math.Abs(d.MRErr)), sumMR+math.Abs(d.MRErr)
		d := d
		t.Run(d.Workload, func(t *testing.T) {
			t.Logf("det CPI %.4f mr %.4f | fast CPI %.4f mr %.4f | cpiErr %+.2f%% mrErr %+.4f",
				d.DetCPI, d.DetMR, d.FastCPI, d.FastMR, 100*d.CPIErr, d.MRErr)
			if *updateEnvelopes {
				return
			}
			if d.CPIBound == 0 && d.MRBound == 0 {
				t.Fatalf("no envelope for %q — run with -update-envelopes", d.Workload)
			}
			if math.Abs(d.CPIErr) > d.CPIBound {
				t.Errorf("CPI error %+.2f%% exceeds envelope ±%.2f%%", 100*d.CPIErr, 100*d.CPIBound)
			}
			if math.Abs(d.MRErr) > d.MRBound {
				t.Errorf("miss-ratio error %+.4f exceeds envelope ±%.4f", d.MRErr, d.MRBound)
			}
		})
	}
	n := float64(len(deltas))
	t.Logf("catalog: CPI err max %.2f%% mean %.2f%% | miss-ratio err max %.4f mean %.4f",
		100*maxCPI, 100*sumCPI/n, maxMR, sumMR/n)
	if *updateEnvelopes {
		writeEnvelopes(t, deltas)
	}
}

// envelopeBound widens a measured error into a committed bound: errors
// inside the target get the target itself; structurally biased workloads
// get their measured error plus a small slack (both engines are
// deterministic, so the slack only has to absorb intentional model
// tweaks, not run-to-run noise).
func envelopeBound(measured, target, slack float64) float64 {
	if math.Abs(measured) <= target-slack {
		return target
	}
	return math.Ceil((math.Abs(measured)+slack)*1000) / 1000
}

func writeEnvelopes(t *testing.T, deltas []fidelityDelta) {
	t.Helper()
	env := accuracyEnvelopes{
		Comment: fmt.Sprintf(
			"Fast-path accuracy contract, measured on the golden config (1/16 scale, epoch 200k, seed 1, %d measured instructions, Equal policy, 8 homogeneous cores). Bounds: 5%% relative CPI / 0.02 absolute miss ratio where the fast path meets the target, measured+slack where its interval model is structurally biased (see EXPERIMENTS.md). Regenerate with -update-envelopes.",
			fidelityInstructions),
		Homogeneous: make(map[string]workloadEnvelope, len(deltas)),
	}
	for _, d := range deltas {
		env.Homogeneous[d.Workload] = workloadEnvelope{
			CPI:       envelopeBound(d.CPIErr, 0.05, 0.01),
			MissRatio: envelopeBound(d.MRErr, 0.02, 0.005),
		}
	}
	relMiss, relCPI, err := fidelityCampaignDeltas(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	env.Campaign.RelMiss = envelopeBound(relMiss, 0.05, 0.01)
	env.Campaign.RelCPI = envelopeBound(relCPI, 0.05, 0.01)
	raw, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')
	if err := os.MkdirAll(filepath.Dir(envelopePath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(envelopePath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d workloads)", envelopePath, len(deltas))
}

// TestFastPathAccuracyCampaign checks the quantity the paper actually
// plots: the per-set Figs. 8/9 ratios (Equal and Bank-aware relative to
// No-partitions) under the fast path must track the detailed engine's
// within the committed campaign envelope.
func TestFastPathAccuracyCampaign(t *testing.T) {
	if *updateEnvelopes {
		t.Skip("campaign envelope is regenerated by TestFastPathAccuracyHomogeneous")
	}
	if testing.Short() {
		t.Skip("full 48-run campaign grid is not a -short test")
	}
	env, err := readEnvelopes()
	if err != nil {
		t.Fatal(err)
	}
	relMiss, relCPI, err := fidelityCampaignDeltas(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("campaign deltas: relMiss %.4f (envelope %.4f), relCPI %.4f (envelope %.4f)",
		relMiss, env.Campaign.RelMiss, relCPI, env.Campaign.RelCPI)
	if relMiss > env.Campaign.RelMiss {
		t.Errorf("relative-miss delta %.4f exceeds envelope %.4f", relMiss, env.Campaign.RelMiss)
	}
	if relCPI > env.Campaign.RelCPI {
		t.Errorf("relative-CPI delta %.4f exceeds envelope %.4f", relCPI, env.Campaign.RelCPI)
	}
}
