package runner_test

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"testing"

	"bankaware/internal/atomicio"
	"bankaware/internal/experiments"
	"bankaware/internal/montecarlo"
	"bankaware/internal/runner"
)

// Record writes each result's record line around the result's own
// encoding. The line must be exactly what json.Marshal gives for the
// record, the way RecordBatch writes it, so journals written either way
// read the same: checked for a fast set unit with its run report, a
// Monte Carlo trial, and strings json escapes.
func TestRecordLineIsTheMarshalledRecord(t *testing.T) {
	ctx := context.Background()
	run, err := experiments.RunSetPolicyContext(ctx, experiments.ScaleModel.Config(), experiments.TableIIISets[0][:],
		300_000, 2, experiments.Options{Seed: 1, Fidelity: experiments.FidelityFast, Observe: true})
	if err != nil {
		t.Fatal(err)
	}
	mcfg := montecarlo.DefaultConfig()
	mcfg.Trials = 3
	mc, err := montecarlo.RunContext(ctx, mcfg, montecarlo.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	results := []any{run, mc.Trials[0], map[string]string{"<a&b>": "line\u2028break\u2029 \x01 \"é\"\n"}}

	path := filepath.Join(t.TempDir(), "units.journal")
	j, err := runner.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if err := j.Record(10*i+3, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var lines [][]byte
	l, err := atomicio.OpenLog(path, func(rec []byte) error {
		lines = append(lines, append([]byte(nil), rec...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if len(lines) != len(results) {
		t.Fatalf("journal holds %d lines, want %d", len(lines), len(results))
	}
	for i, r := range results {
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(struct {
			Job    int             `json:"job"`
			Result json.RawMessage `json:"result"`
		}{10*i + 3, raw})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(lines[i], want) {
			t.Errorf("record %d (%T): line differs from the marshalled record\n got %.200s\nwant %.200s", i, r, lines[i], want)
		}
	}
}
