package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// tailQuantile is the tail percentile op_p75_ms reports. The slowest
// workloads complete a few dozen operations per window, and p75 is the
// highest round percentile that leaves ten samples beyond it at 40
// operations.
const tailQuantile = 0.75

// minSamples is how many samples a percentile needs so that at least ten lie
// beyond it: p90 needs 100, p75 needs 40, the median 20.
func minSamples(p float64) int {
	return int(math.Ceil(10/(1-p) - 1e-9))
}

// quantile returns the p-quantile of xs by linear interpolation between
// closest ranks. With strict set it refuses a sample too small to have ten
// values beyond the quantile, rather than report a tail it cannot support.
func quantile(xs []float64, p float64, strict bool) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("no samples")
	}
	if strict && len(xs) < minSamples(p) {
		return 0, fmt.Errorf("p%g needs %d samples, have %d", 100*p, minSamples(p), len(xs))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(len(s)-1)
	lo := int(h)
	if lo+1 >= len(s) {
		return s[len(s)-1], nil
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo]), nil
}

// median is the 0.5-quantile without the sample-count rule: set-up
// repetitions and replay units are few by construction.
func median(xs []float64) float64 {
	v, err := quantile(xs, 0.5, false)
	if err != nil {
		return math.NaN()
	}
	return v
}

// The end-to-end times are reported at a reference clock. On a shared VM
// the clock a thread effectively gets drifts by tens of percent over
// minutes (other tenants' load, frequency), and every host time moves with
// it. A fixed chain of dependent single-cycle ALU operations, independent
// of the program, measures that clock just before each timed interval;
// the interval's wall time times that clock over refClockHz estimates the
// interval's length had the host run at the reference clock throughout.
const (
	// refChainOps is the kernel's length: 2^19 xorshift64 steps of six
	// dependent shifts and xors.
	refChainOps = 6 << 19
	refClockHz  = 3e9
)

var refSink uint64

// refKernel runs the reference chain once and returns its duration.
func refKernel() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < refChainOps/6; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	refSink += x
	return time.Since(start)
}

// hostScale is the host's effective clock over refClockHz (the chain's
// duration at the reference clock over its median measured duration, of
// three): a wall time times it is that time at the reference clock.
func hostScale() float64 {
	xs := make([]float64, 3)
	for i := range xs {
		xs[i] = refKernel().Seconds()
	}
	return refChainOps / refClockHz / median(xs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// metric is one reported value with its unit, as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// check refuses a value JSON cannot carry.
func (m metricSet) check() error {
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	return nil
}

// print writes one "name value unit" line per metric, sorted by name.
func (m metricSet) print() {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %16s %s\n", n, strconv.FormatFloat(m[n].Value, 'g', -1, 64), m[n].Unit)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// rssPeakMB reads the process's peak resident set (VmHWM) in MB.
func rssPeakMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// lastJSONLine decodes the last non-empty line of a child's output.
func lastJSONLine(out []byte, v any) error {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), v); err != nil {
		return fmt.Errorf("decoding child result %q: %w", lines[len(lines)-1], err)
	}
	return nil
}
