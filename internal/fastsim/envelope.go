package fastsim

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// envelopeJSON is the committed accuracy contract for the fast path,
// regenerated with `go test ./internal/fastsim -run TestFastPathAccuracy
// -update-envelopes` and reviewed like any golden file.
//
//go:embed testdata/fidelity-envelopes.json
var envelopeJSON []byte

// WorkloadEnvelope bounds one homogeneous workload's fast-vs-detailed
// error: CPI is the maximum relative CPI error, MissRatio the maximum
// absolute miss-ratio error.
type WorkloadEnvelope struct {
	CPI       float64 `json:"cpi"`
	MissRatio float64 `json:"missRatio"`
}

// AccuracyEnvelopes is the committed accuracy contract: per-workload
// bounds for the homogeneous catalog sweep and grid-level bounds for the
// Figs. 8/9 campaign ratios.
type AccuracyEnvelopes struct {
	Comment     string                      `json:"comment"`
	Homogeneous map[string]WorkloadEnvelope `json:"homogeneous"`
	Campaign    struct {
		RelMiss float64 `json:"relMiss"`
		RelCPI  float64 `json:"relCPI"`
	} `json:"campaign"`
}

// Envelopes returns the committed accuracy envelopes the differential
// harness (internal/benchmarks.FidelitySweep and the fastsim test suite)
// gates against.
func Envelopes() (AccuracyEnvelopes, error) {
	var env AccuracyEnvelopes
	if err := json.Unmarshal(envelopeJSON, &env); err != nil {
		return env, fmt.Errorf("fastsim: parsing embedded accuracy envelopes: %w", err)
	}
	return env, nil
}
