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

func TestParseScale(t *testing.T) {
	for name, want := range map[string]Scale{"": ScaleModel, "model": ScaleModel, "full": ScaleFull} {
		if got, err := ParseScale(name); err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseScale("Full"); err == nil {
		t.Error("ParseScale accepted an unknown name")
	}
}
