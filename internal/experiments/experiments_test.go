package experiments

import (
	"testing"

	"bankaware/internal/nuca"
)

func TestTableIIISetsWellFormed(t *testing.T) {
	if len(TableIIISets) != 8 {
		t.Fatalf("%d sets, want 8", len(TableIIISets))
	}
	for i, set := range TableIIISets {
		if len(set) != nuca.NumCores {
			t.Fatalf("set %d has %d workloads", i+1, len(set))
		}
	}
}

func TestScaleConfigsValid(t *testing.T) {
	for _, s := range []Scale{ScaleModel, ScaleFull} {
		if err := s.Config().Validate(); err != nil {
			t.Fatalf("scale %d config invalid: %v", s, err)
		}
		if s.DefaultInstructions() == 0 {
			t.Fatalf("scale %d has no instruction budget", s)
		}
	}
}
