package main

import (
	"fmt"
	"strings"
	"testing"
)

// Result lines as `go test -bench -benchmem` prints them at GOMAXPROCS 2,
// custom units included, with ns/op, B/op and allocs/op left as verbs.
const (
	bankAccess   = "BenchmarkBankAccess-2   \t46195698\t%12.2f ns/op\t%8d B/op\t%8d allocs/op\n"
	systemStep   = "BenchmarkSystemStep-2   \t     276\t%12.0f ns/op\t  11907807 simCycles/sec\t  25819143 simInstr/sec\t%8d B/op\t%8d allocs/op\n"
	cachedSubmit = "BenchmarkServiceCachedSubmit-2   \t   13860\t%12.0f ns/op\t     10977 hits/sec\t%8d B/op\t%8d allocs/op\n"
)

// series is one benchmark's samples over the rounds of a run.
type series struct {
	line          string
	ns            []float64
	bytes, allocs int
}

// output renders the rounds as CI appends them to one file: each round is
// one `go test ./...` pass with its package header and trailer.
func output(ss ...series) string {
	var b strings.Builder
	for round := range ss[0].ns {
		b.WriteString("goos: linux\ngoarch: amd64\npkg: bankaware/internal/cache\ncpu: Intel(R) Xeon(R) Processor\n")
		for _, s := range ss {
			fmt.Fprintf(&b, s.line, s.ns[round], s.bytes, s.allocs)
		}
		b.WriteString("PASS\nok  \tbankaware/internal/cache\t12.345s\n")
	}
	return b.String()
}

// rounds returns ten samples near ns, rising 0.1% a round.
func rounds(ns float64) []float64 {
	out := make([]float64, 10)
	for i := range out {
		out[i] = ns * (1 + float64(i)/1000)
	}
	return out
}

func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

func TestGate(t *testing.T) {
	// Two parent rounds hit by host noise: the change is 12% slower in
	// the median but faster in those two pairs.
	noisy := append(rounds(25)[:8], 50, 50)
	for _, tc := range []struct {
		name           string
		parent, change []series
		fail           bool
	}{
		{"12% slower in 10 of 10 pairs fails",
			[]series{{bankAccess, rounds(25), 0, 0}},
			[]series{{bankAccess, scaled(rounds(25), 1.12), 0, 0}}, true},
		{"12% slower in 8 of 10 pairs passes",
			[]series{{bankAccess, noisy, 0, 0}},
			[]series{{bankAccess, scaled(rounds(25), 1.12), 0, 0}}, false},
		{"Service* 40% slower in 10 of 10 pairs passes",
			[]series{{cachedSubmit, rounds(60000), 14985, 136}},
			[]series{{cachedSubmit, scaled(rounds(60000), 1.4), 14985, 136}}, false},
		{"allocs from 0 to 1 fail",
			[]series{{bankAccess, rounds(25), 0, 0}},
			[]series{{bankAccess, rounds(25), 32, 1}}, true},
		// A 32-byte allocation on three calls in four: allocs/op rounds
		// down to 0, B/op reads 24.
		{"bytes from 0 to 24 at 0 allocs fail",
			[]series{{bankAccess, rounds(25), 0, 0}},
			[]series{{bankAccess, rounds(25), 24, 0}}, true},
		{"allocs from 18 to 28 fail",
			[]series{{systemStep, rounds(31e6), 79497, 18}},
			[]series{{systemStep, rounds(31e6), 79497, 28}}, true},
		{"a benchmark on one side only is skipped",
			[]series{{bankAccess, rounds(25), 0, 0}, {systemStep, rounds(31e6), 79497, 18}},
			[]series{{bankAccess, rounds(25), 0, 0}, {cachedSubmit, rounds(60000), 14985, 136}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			parent, err := parse(strings.NewReader(output(tc.parent...)))
			if err != nil {
				t.Fatal(err)
			}
			change, err := parse(strings.NewReader(output(tc.change...)))
			if err != nil {
				t.Fatal(err)
			}
			var table strings.Builder
			failures := gate(&table, parent, change)
			t.Logf("table:\n%s", table.String())
			if got := len(failures) > 0; got != tc.fail {
				t.Errorf("failures %q, want failing %v", failures, tc.fail)
			}
			rows := strings.Split(strings.TrimSpace(table.String()), "\n")
			if len(rows) != 2 {
				t.Fatalf("table has %d rows, want a header and one benchmark", len(rows))
			}
			if name := strings.Fields(rows[1])[0]; !strings.HasPrefix(tc.parent[0].line, "Benchmark"+name+"-2 ") {
				t.Errorf("row names %q, want the name without its Benchmark prefix and -2 suffix", name)
			}
		})
	}
}

func TestParseNeedsBenchmem(t *testing.T) {
	line := "BenchmarkBankAccess-2   \t46195698\t        25.90 ns/op\n"
	if _, err := parse(strings.NewReader(line)); err == nil {
		t.Error("a result line without B/op and allocs/op parsed")
	}
}
