package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"reflect"
	"sort"
	"strings"
	"testing"

	"bankaware/internal/core"
	"bankaware/internal/experiments"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// smoke test runs it as a child, and the benchmark runs its own children
// (set-ups, the engine replay) the same way.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestPercentileSampleRule(t *testing.T) {
	for _, tc := range []struct {
		p    float64
		need int
	}{{0.9, 100}, {0.75, 40}, {0.5, 20}} {
		if got := minSamples(tc.p); got != tc.need {
			t.Errorf("minSamples(%g) = %d, want %d", tc.p, got, tc.need)
		}
		xs := make([]float64, tc.need)
		for i := range xs {
			xs[i] = float64(i)
		}
		if _, err := quantile(xs[:tc.need-1], tc.p, true); err == nil {
			t.Errorf("p%g accepted %d samples, want refusal below %d", 100*tc.p, tc.need-1, tc.need)
		}
		if _, err := quantile(xs, tc.p, true); err != nil {
			t.Errorf("p%g refused %d samples: %v", 100*tc.p, tc.need, err)
		}
		if _, err := quantile(xs[:2], tc.p, false); err != nil {
			t.Errorf("non-strict p%g refused 2 samples: %v", 100*tc.p, err)
		}
	}
	if v, _ := quantile([]float64{5, 1, 4, 2, 3}, 0.75, false); v != 4 {
		t.Errorf("p75 of 1..5 = %g, want 4", v)
	}
	if v, _ := quantile([]float64{1, 2, 3, 4}, 0.5, false); v != 2.5 {
		t.Errorf("median of 1..4 = %g, want 2.5", v)
	}
}

// TestFailedAccounting drives one op through each failure the benchmark
// counts (a non-2xx response, a failed job, a failed proof check, a byte
// mismatch against the direct run) next to good ones.
func TestFailedAccounting(t *testing.T) {
	e, err := boot(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	ctx := context.Background()
	w, _ := workloadByName("set-detailed")
	sc := smokeScale
	c := newClient(e.ts.URL)
	defer c.close()
	win := &window{}
	add := func(r opResult) { win.ops = append(win.ops, r) }

	add(c.do(ctx, 0, w.spec(sc, 1, 0), true))
	add(c.do(ctx, 1, w.spec(sc, 1, 1), true))
	add(c.do(ctx, 2, []byte(`{"kind":"nope"}`), false))
	// A detailed set far too long for its 1 ms deadline fails.
	add(c.do(ctx, 3, []byte(`{"kind":"set","timeoutMs":1,"set":{"set":1,"instructions":50000000}}`), false))
	// A server that serves tampered report bytes fails verification.
	tamper := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		e.svc.Handler().ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if strings.HasSuffix(r.URL.Path, "/report") && len(body) > 0 {
			body[len(body)/2] ^= 1
		}
		for k, v := range rec.Header() {
			rw.Header()[k] = v
		}
		rw.WriteHeader(rec.Code)
		rw.Write(body)
	}))
	defer tamper.Close()
	tc := newClient(tamper.URL)
	defer tc.close()
	add(tc.do(ctx, 4, w.spec(sc, 1, 4), false))

	for i, want := range []string{"", "", "-> 400", "ended failed", "verifying report"} {
		got := win.ops[i].err
		if (want == "") != (got == nil) || (got != nil && !strings.Contains(got.Error(), want)) {
			t.Errorf("op %d: err = %v, want %q", i, got, want)
		}
	}
	if win.failed() != 3 {
		t.Fatalf("failed = %d of %d, want 3", win.failed(), len(win.ops))
	}

	// Op 0 is the smoke scale's only check op: it matches its direct run
	// until its kept bytes are corrupted.
	if err := checkDirect(ctx, win, w, sc, 1); err != nil {
		t.Fatal(err)
	}
	if win.ops[0].err != nil {
		t.Errorf("op 0 differs from its direct run: %v", win.ops[0].err)
	}
	win.ops[0].body[0] ^= 1
	if err := checkDirect(ctx, win, w, sc, 1); err != nil {
		t.Fatal(err)
	}
	if win.ops[0].err == nil || !strings.Contains(win.ops[0].err.Error(), "differs from the direct Runner run") {
		t.Errorf("op 0 byte mismatch not counted: %v", win.ops[0].err)
	}
	if win.failed() != 4 {
		t.Fatalf("failed = %d of %d after the byte check, want 4", win.failed(), len(win.ops))
	}
}

// TestReplayMatchesServedRun pins that the traced replay, built with
// sim.NewWithStreams over counting streams and a timing policy, simulates
// exactly the unit the service runs: experiments.RunSetPolicyContext, which
// builds its system with sim.New.
func TestReplayMatchesServedRun(t *testing.T) {
	ctx := context.Background()
	sc := smokeScale
	cfg := detailedConfig(sc, 1, 0)
	workloads := experiments.TableIIISets[0][:]
	for p, proto := range setPolicies() {
		u, err := replayDetailed(ctx, cfg, workloads, proto, sc.detailedInstr)
		if err != nil {
			t.Fatal(err)
		}
		run, err := experiments.RunSetPolicyContext(ctx, cfg, workloads, sc.detailedInstr, p,
			experiments.Options{Seed: cfg.Seed, Observe: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(u.result, run.Result) {
			t.Errorf("%s: replay result differs from the served unit:\n%v\n%v", proto.Name(), u.result, run.Result)
		}
		if u.events == 0 || u.allocs == 0 {
			t.Errorf("%s: replay counted %d events and %d allocations", proto.Name(), u.events, u.allocs)
		}
	}
	if _, err := newTimedPolicy(core.NewBandwidthAwarePolicy()); err == nil {
		t.Error("timing wrapper accepted a feedback policy it would hide")
	}
}

// TestSmoke runs every workload untraced and traced at smoke scale through
// the benchmark binary and checks that the result line carries exactly the
// metrics BENCHMARK.json lists, with no failed op.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark binary")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	var listed []string
	for _, w := range workloads {
		listed = append(listed, w.name)
	}
	if got := names(spec.Workloads); !reflect.DeepEqual(got, sortedCopy(listed)) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", got, listed)
	}
	work := t.TempDir()
	for _, w := range workloads {
		for trace, want := range map[string][]string{"0": names(spec.EndToEnd), "1": names(spec.PerLayer)} {
			cmd := exec.Command(os.Args[0], "-workload", w.name, "-seed", "3", "-seconds", "1", "-trace", trace, "-smoke", "-work", work)
			cmd.Env = append(os.Environ(), childEnv+"=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s trace=%s: %v\n%s", w.name, trace, err, stderr.Bytes())
			}
			var res result
			if err := lastJSONLine(out, &res); err != nil {
				t.Fatal(err)
			}
			var got []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%s emits %v, BENCHMARK.json lists %v", w.name, trace, got, want)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("%s trace=%s: correct=%v failed=%d attempted=%d", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
		}
	}
}

func sortedCopy(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}
