// Command bench gates a change's micro-benchmarks against its parent's. It
// reads two `go test -bench -benchmem` outputs, the parent's and the
// change's, recorded in alternating rounds on the same host, pairs each
// benchmark's samples round by round, and fails (exit 1) when
//
//   - a benchmark the parent runs allocation-free (median 0 allocs/op
//     or 0 B/op) allocates on the change: the inner simulation loop is
//     required to stay allocation-free in steady state (DESIGN.md,
//     "Performance model"). go test rounds both counts down per op, so a
//     32-byte allocation on three calls in four reads 0 allocs/op but
//     24 B/op;
//   - a benchmark with residual allocations grows its median allocs/op
//     past 1.5x;
//   - a benchmark's median ns/op is more than 10% slower (50% for
//     Service*, whose fsyncs and HTTP round trips vary more) and the
//     change is also slower in at least nine tenths of the pairs, so that
//     a gap inside the host's run-to-run spread is not a regression.
//
// A benchmark present in only one file is skipped: the gate guards the
// hot paths both commits measure. Usage:
//
//	go run ./cmd/bench parent.txt change.txt
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// samples holds one benchmark's ns/op, B/op and allocs/op in file order.
type samples struct {
	ns, bytes, allocs []float64
}

// procSuffix is the -GOMAXPROCS suffix go test appends to a benchmark name.
var procSuffix = regexp.MustCompile(`-[0-9]+$`)

// parse reads the result lines of a `go test -bench -benchmem` output and
// returns each benchmark's samples in file order, keyed by its name
// without the Benchmark prefix and the -GOMAXPROCS suffix.
func parse(r io.Reader) (map[string]*samples, error) {
	out := map[string]*samples{}
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.ParseUint(f[1], 10, 64); err != nil {
			continue // not a result line, e.g. a failure message
		}
		ns, bytes, allocs := -1.0, -1.0, -1.0
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: bad value %q", line, f[i])
			}
			switch f[i+1] {
			case "ns/op":
				ns = v
			case "B/op":
				bytes = v
			case "allocs/op":
				allocs = v
			}
		}
		if ns < 0 || bytes < 0 || allocs < 0 {
			return nil, fmt.Errorf("line %d: want ns/op, B/op and allocs/op (run go test with -benchmem): %s", line, sc.Text())
		}
		name := procSuffix.ReplaceAllString(strings.TrimPrefix(f[0], "Benchmark"), "")
		s := out[name]
		if s == nil {
			s = &samples{}
			out[name] = s
		}
		s.ns, s.bytes, s.allocs = append(s.ns, ns), append(s.bytes, bytes), append(s.allocs, allocs)
	}
	return out, sc.Err()
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// gate writes one row per benchmark present in both outputs to w and
// returns one message per regression.
func gate(w io.Writer, parent, change map[string]*samples) []string {
	var names []string
	for name := range parent {
		if _, ok := change[name]; ok {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return []string{"no benchmark appears in both outputs"}
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tparent ns/op\tchange ns/op\tdelta\tslower pairs\tparent B/op\tchange B/op\tparent allocs/op\tchange allocs/op")
	var failures []string
	for _, name := range names {
		p, c := parent[name], change[name]
		pairs := min(len(p.ns), len(c.ns))
		slower := 0
		for i := 0; i < pairs; i++ {
			if c.ns[i] > p.ns[i] {
				slower++
			}
		}
		pn, cn := median(p.ns), median(c.ns)
		pb, cb := median(p.bytes), median(c.bytes)
		pa, ca := median(p.allocs), median(c.allocs)
		delta := 100 * (cn/pn - 1)
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%+.1f%%\t%d/%d\t%g\t%g\t%g\t%g\n", name, pn, cn, delta, slower, pairs, pb, cb, pa, ca)

		limit := 10.0
		if strings.HasPrefix(name, "Service") {
			limit = 50
		}
		if delta > limit && 10*slower >= 9*pairs {
			failures = append(failures, fmt.Sprintf("%s: median %.2f ns/op vs parent %.2f (%+.1f%%, limit +%g%%), slower in %d of %d pairs",
				name, cn, pn, delta, limit, slower, pairs))
		}
		switch {
		case pa == 0 && ca > 0:
			failures = append(failures, fmt.Sprintf("%s: %g allocs/op on a path the parent runs allocation-free", name, ca))
		case pb == 0 && cb > 0:
			failures = append(failures, fmt.Sprintf("%s: %g B/op on a path the parent runs allocation-free", name, cb))
		case pa > 0 && ca > 1.5*pa:
			failures = append(failures, fmt.Sprintf("%s: %g allocs/op vs parent %g (>1.5x)", name, ca, pa))
		}
	}
	tw.Flush()
	return failures
}

func read(path string) map[string]*samples {
	f, err := os.Open(path)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	s, err := parse(f)
	if err != nil {
		fatalf("%s: %v", path, err)
	}
	return s
}

func main() {
	if len(os.Args) != 3 {
		fatalf("usage: go run ./cmd/bench parent.txt change.txt")
	}
	failures := gate(os.Stdout, read(os.Args[1]), read(os.Args[2]))
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "FAIL:", f)
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
	fmt.Println("gate passed")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}
