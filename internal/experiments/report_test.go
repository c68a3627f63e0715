package experiments

import (
	"bytes"
	"encoding/csv"
	"testing"

	"bankaware/internal/sim"
)

func fakeFig89() *Fig8Fig9Result {
	mk := func(acc, miss uint64, cpi float64) sim.Result {
		return sim.Result{TotalL2Accesses: acc, TotalL2Misses: miss,
			MissRatio: float64(miss) / float64(acc), MeanCPI: cpi}
	}
	return &Fig8Fig9Result{
		Sets: []SetResult{
			{
				Set: 1, Workloads: []string{"a", "b", "c", "d", "e", "f", "g", "h"},
				None: mk(1000, 500, 4), Equal: mk(1000, 300, 2), Bank: mk(1000, 250, 1.8),
				RelMissEqual: 0.6, RelMissBank: 0.5, RelCPIEqual: 0.5, RelCPIBank: 0.45,
			},
		},
		GMRelMissEqual: 0.6, GMRelMissBank: 0.5, GMRelCPIEqual: 0.5, GMRelCPIBank: 0.45,
	}
}

func TestWriteFig8CSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFig8CSV(&buf, fakeFig89()); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 4 { // header + 3 policies
		t.Fatalf("%d records", len(records))
	}
	if records[0][0] != "set" || records[1][1] != "none" || records[3][1] != "bankaware" {
		t.Fatalf("unexpected layout: %v", records)
	}
	if records[3][6] != "0.500000" {
		t.Fatalf("rel miss column = %q", records[3][6])
	}
}
