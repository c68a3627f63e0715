package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestRunSetRejectsUnknownWorkload(t *testing.T) {
	cfg := ScaleModel.Config()
	_, err := RunSetContext(context.Background(), cfg, 1, []string{"nonesuch", "b", "c", "d", "e", "f", "g", "h"}, 1000, Options{})
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestRunSetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("detailed simulation in -short mode")
	}
	cfg := ScaleModel.Config()
	r, err := RunSetContext(context.Background(), cfg, 3, TableIIISets[2][:], 400_000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Set != 3 || len(r.Workloads) != 8 {
		t.Fatalf("metadata wrong: %+v", r.Set)
	}
	// All three policies must have produced traffic.
	for _, res := range []uint64{r.None.TotalL2Accesses, r.Equal.TotalL2Accesses, r.Bank.TotalL2Accesses} {
		if res == 0 {
			t.Fatal("a policy saw no traffic")
		}
	}
	// Relative metrics are positive and finite.
	for _, v := range []float64{r.RelMissEqual, r.RelMissBank, r.RelCPIEqual, r.RelCPIBank,
		r.TotalMissEqual, r.TotalMissBank} {
		if !(v > 0) || v > 100 {
			t.Fatalf("implausible relative metric %v", v)
		}
	}
}

func TestFig8Fig9StringLayout(t *testing.T) {
	r := fakeFig89()
	s := r.String()
	if !strings.Contains(s, "set") || !strings.Contains(s, "GM") {
		t.Fatalf("rendering missing rows:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 1+len(r.Sets)+1 { // header + sets + GM
		t.Fatalf("%d lines", len(lines))
	}
}

func TestFig3CurvesUnknownWorkload(t *testing.T) {
	if _, err := Fig3CurvesContext(context.Background(), []string{"nonesuch"}, 1000, ScaleModel, Options{}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestAggregationComparisonDeterministic(t *testing.T) {
	a, err := AggregationComparison(30_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AggregationComparison(30_000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs across runs", i)
		}
	}
}
