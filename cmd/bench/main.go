// Command bench is the machine-readable perf harness: it runs the hot-path
// micro-benchmarks, the detailed engine's end-to-end system benchmark and
// the fast tier's set evaluation through testing.Benchmark, emits a
// BENCH_<n>.json trajectory file, and gates regressions against a
// committed baseline.
//
// Typical uses:
//
//	go run ./cmd/bench -count 5 -out bench.json          # record a run
//	go run ./cmd/bench -count 5 -compare BENCH_5.json    # CI regression gate
//	go run ./cmd/bench -count 5 -text bench.txt          # benchstat samples
//
// The gate fails (exit 1) when any benchmark's median-of-count ns/op exceeds
// the baseline by more than -threshold percent, when a benchmark the
// baseline holds allocation-free reports any allocs/op, or when a bench
// with residual allocations grows them by more than 1.5x: the inner
// simulation loop is required to stay allocation-free in steady state (see
// DESIGN.md, "Performance model").
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"

	"bankaware/internal/benchmarks"
)

// Schema identifies the JSON layout of a trajectory file.
const Schema = "bankaware.bench/v1"

// File is the serialised form of one harness run. The host-topology
// fields (NumCPU, GOMAXPROCS) make the runner's parallelism
// machine-readable: numbers from a single-CPU container (the BENCH_9
// caveat) are not comparable with multi-CPU ones, and a gate can detect
// that instead of guessing.
type File struct {
	Schema     string   `json:"schema"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Count      int      `json:"count"`
	Benchmarks []Result `json:"benchmarks"`
}

// Result records the median-of-count outcome of one benchmark (median, not
// best: the gate compares two median-of-count runs, and the median is far
// less sensitive to scheduler noise than the minimum). Extra carries the
// benchmark's ReportMetric values (e.g. simCycles/sec) from the run the
// median ns/op came from.
type Result struct {
	Name        string             `json:"name"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// suite lists every benchmark the harness runs, in output order.
var suite = []struct {
	name string
	fn   func(*testing.B)
}{
	{"BankAccess", benchmarks.BankAccess},
	{"ProfilerAccess", benchmarks.ProfilerAccess},
	{"ProfilerAccessUnsampled", benchmarks.ProfilerAccessUnsampled},
	{"DirectoryAccess", benchmarks.DirectoryAccess},
	{"MSHRFill", benchmarks.MSHRFill},
	{"SystemStep", benchmarks.SystemStep},
	{"FastSetEvaluation", benchmarks.FastSetEvaluation},
	{"ServiceSubmitThroughput", benchmarks.ServiceSubmitThroughput},
	{"ServiceCachedSubmit", benchmarks.ServiceCachedSubmit},
}

func main() {
	var (
		count     = flag.Int("count", 3, "runs per benchmark; the median ns/op is recorded")
		outPath   = flag.String("out", "", "write results as a trajectory JSON file")
		textPath  = flag.String("text", "", "write all samples in benchstat-compatible text form")
		compare   = flag.String("compare", "", "baseline trajectory JSON to gate against")
		threshold = flag.Float64("threshold", 10, "max ns/op regression percent before the gate fails")
		benchtime = flag.String("benchtime", "", "per-sample benchtime (passed to the testing package, e.g. 200ms or 100x)")
		runExpr   = flag.String("run", "", "only run benchmarks matching this regexp")
	)
	testing.Init()
	flag.Parse()
	if *benchtime != "" {
		if err := flag.Set("test.benchtime", *benchtime); err != nil {
			fatalf("bad -benchtime: %v", err)
		}
	}
	var filter *regexp.Regexp
	if *runExpr != "" {
		var err error
		if filter, err = regexp.Compile(*runExpr); err != nil {
			fatalf("bad -run: %v", err)
		}
	}
	if *count < 1 {
		*count = 1
	}

	// Benchstat file-level configuration lines: benchstat groups files by
	// these keys, so runs from hosts with different parallelism are never
	// silently averaged together.
	text := []string{
		fmt.Sprintf("goos: %s", runtime.GOOS),
		fmt.Sprintf("goarch: %s", runtime.GOARCH),
		fmt.Sprintf("num-cpu: %d", runtime.NumCPU()),
		fmt.Sprintf("gomaxprocs: %d", runtime.GOMAXPROCS(0)),
	}
	file := File{
		Schema:     Schema,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Count:      *count,
	}
	for _, b := range suite {
		if filter != nil && !filter.MatchString(b.name) {
			continue
		}
		samples := make([]Result, 0, *count)
		for i := 0; i < *count; i++ {
			r := testing.Benchmark(b.fn)
			if r.N == 0 {
				fatalf("%s: benchmark did not run", b.name)
			}
			text = append(text, fmt.Sprintf("Benchmark%s%s%s", b.name, r.String(), r.MemString()))
			s := Result{
				Name:        b.name,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				AllocsPerOp: r.AllocsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
			}
			for k, v := range r.Extra {
				if s.Extra == nil {
					s.Extra = map[string]float64{}
				}
				s.Extra[k] = v
			}
			samples = append(samples, s)
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i].NsPerOp < samples[j].NsPerOp })
		med := samples[(len(samples)-1)/2]
		fmt.Printf("%-26s %12.2f ns/op %8d B/op %6d allocs/op", med.Name, med.NsPerOp, med.BytesPerOp, med.AllocsPerOp)
		for k, v := range med.Extra {
			fmt.Printf("  %12.0f %s", v, k)
		}
		fmt.Println()
		file.Benchmarks = append(file.Benchmarks, med)
	}

	if *textPath != "" {
		var buf []byte
		for _, line := range text {
			buf = append(buf, line...)
			buf = append(buf, '\n')
		}
		if err := os.WriteFile(*textPath, buf, 0o644); err != nil {
			fatalf("writing %s: %v", *textPath, err)
		}
	}
	if *outPath != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			fatalf("encoding results: %v", err)
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			fatalf("writing %s: %v", *outPath, err)
		}
	}
	if *compare != "" {
		if failures := gate(file, *compare, *threshold); len(failures) > 0 {
			for _, f := range failures {
				fmt.Fprintln(os.Stderr, "REGRESSION:", f)
			}
			os.Exit(1)
		}
		fmt.Printf("gate passed: no ns/op regression >%g%% and no allocs/op growth vs %s\n", *threshold, *compare)
	}
}

// gate compares results against the baseline file and returns one message
// per regression. Benchmarks absent from either side are skipped: the gate
// guards known hot paths, it does not force lockstep suite membership.
func gate(got File, baselinePath string, threshold float64) []string {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		fatalf("reading baseline: %v", err)
	}
	var base File
	if err := json.Unmarshal(data, &base); err != nil {
		fatalf("decoding baseline %s: %v", baselinePath, err)
	}
	if base.Schema != Schema {
		fatalf("baseline %s has schema %q, want %q", baselinePath, base.Schema, Schema)
	}
	byName := map[string]Result{}
	for _, r := range base.Benchmarks {
		byName[r.Name] = r
	}
	var failures []string
	for _, r := range got.Benchmarks {
		b, ok := byName[r.Name]
		if !ok {
			continue
		}
		// Service* benches are fsync- and network-bound (durable job
		// intake), an order of magnitude noisier across runners than the
		// CPU-bound simulator paths; they gate at 5x the threshold.
		pct := threshold
		if strings.HasPrefix(r.Name, "Service") {
			pct = threshold * 5
		}
		if limit := b.NsPerOp * (1 + pct/100); r.NsPerOp > limit {
			failures = append(failures, fmt.Sprintf("%s: %.2f ns/op vs baseline %.2f (+%.1f%%, limit +%g%%)",
				r.Name, r.NsPerOp, b.NsPerOp, 100*(r.NsPerOp/b.NsPerOp-1), pct))
		}
		// Allocation-free benches must stay allocation-free, exactly. A bench
		// with residual allocations (e.g. SystemStep's working-set growth,
		// whose per-op amortisation varies with the iteration count) only
		// fails on gross growth.
		switch {
		case b.AllocsPerOp == 0 && r.AllocsPerOp > 0:
			failures = append(failures, fmt.Sprintf("%s: %d allocs/op on a path the baseline holds allocation-free",
				r.Name, r.AllocsPerOp))
		case b.AllocsPerOp > 0 && r.AllocsPerOp > b.AllocsPerOp+b.AllocsPerOp/2:
			failures = append(failures, fmt.Sprintf("%s: %d allocs/op vs baseline %d (>1.5x)",
				r.Name, r.AllocsPerOp, b.AllocsPerOp))
		}
	}
	return failures
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}
