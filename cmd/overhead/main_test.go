package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestIsDefaultIgnoresOutputFlags: -report and -pprof choose where output
// goes, not what is computed, so with only them set the command still
// prints the Table II comparison; a model flag selects a custom
// configuration.
func TestIsDefaultIgnoresOutputFlags(t *testing.T) {
	for args, want := range map[string]bool{
		"":                         true,
		"-report r.json":           true,
		"-pprof :6060":             true,
		"-report r.json -pprof :0": true,
		"-tagbits 12":              false,
		"-pprof :6060 -ways 64":    false,
	} {
		fs := flag.NewFlagSet("overhead", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.String("report", "", "")
		fs.String("pprof", "", "")
		fs.Int("tagbits", 12, "")
		fs.Int("ways", 72, "")
		if err := fs.Parse(strings.Fields(args)); err != nil {
			t.Fatal(err)
		}
		if got := isDefault(fs); got != want {
			t.Errorf("isDefault(%q) = %v, want %v", args, got, want)
		}
	}
}
