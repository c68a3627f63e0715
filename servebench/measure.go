package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"bankaware/internal/service"
)

// verified returns the window's operations that passed verification.
func (win *window) verified() []opResult {
	var out []opResult
	for _, r := range win.ops {
		if r.err == nil {
			out = append(out, r)
		}
	}
	return out
}

// collect maps every verified op through f.
func collect(ops []opResult, f func(r *opResult) float64) []float64 {
	out := make([]float64, len(ops))
	for i := range ops {
		out[i] = f(&ops[i])
	}
	return out
}

// endToEnd computes the untraced run's metrics; times are at the reference
// clock. One closed-loop client completes one op per op latency, so the
// throughput is the verified ops over their summed latencies.
func endToEnd(win *window, setupS []float64, rss float64, strict bool) (metricSet, error) {
	ok := win.verified()
	if len(ok) == 0 {
		return nil, fmt.Errorf("no operation completed")
	}
	m := metricSet{}
	m.set("setup_s", median(setupS), "s")
	lat := collect(ok, (*opResult).refLatencyMS)
	total := 0.0
	for _, l := range lat {
		total += l
	}
	m.set("ops_per_s", float64(len(ok))/(total/1e3), "ops/s")
	p50, err := quantile(lat, 0.5, strict)
	if err != nil {
		return nil, fmt.Errorf("op_p50_ms: %w", err)
	}
	tail, err := quantile(lat, tailQuantile, strict)
	if err != nil {
		return nil, fmt.Errorf("op_p75_ms: %w", err)
	}
	m.set("op_p50_ms", p50, "ms")
	m.set("op_p75_ms", tail, "ms")
	m.set("rss_peak_mb", rss, "MB")
	return m, nil
}

// serviceLayers computes the service-side per-layer metrics of a traced
// run from its client spans, the jobs' store timestamps, and direct calls
// to the intake's decode and hash steps.
func serviceLayers(w workload, sc scale, seed uint64, untraced, traced *window) (metricSet, error) {
	ok := traced.verified()
	base := untraced.verified()
	if len(ok) == 0 || len(base) == 0 {
		return nil, fmt.Errorf("no operation completed")
	}
	m := metricSet{}
	// Op intervals are at the reference clock, as op_p50_ms is.
	med := func(name string, d func(r *opResult) time.Duration) {
		m.set(name, median(collect(ok, func(r *opResult) float64 { return ms(d(r)) * r.speed })), "ms")
	}
	med("service.ack_ms", func(r *opResult) time.Duration { return r.steps[stepPost].d() })
	med("service.report_get_ms", func(r *opResult) time.Duration { return r.steps[stepReport].d() })
	med("service.proof_get_ms", func(r *opResult) time.Duration { return r.steps[stepProof].d() })
	med("ledger.verify_ms", func(r *opResult) time.Duration { return r.steps[stepVerify].d() })
	med("bench.residual_ms", (*opResult).residual)
	med("service.queue_wait_ms", func(r *opResult) time.Duration { return r.queueWait })
	med("service.execute_ms", func(r *opResult) time.Duration { return r.execute })
	med("service.notify_ms", func(r *opResult) time.Duration { return r.notify })
	m.set("service.report_kb", median(collect(ok, func(r *opResult) float64 { return float64(r.reportLen) / 1024 })), "KB")

	lat := (*opResult).refLatencyMS
	m.set("bench.trace_overhead_pct", 100*(median(collect(ok, lat))/median(collect(base, lat))-1), "%")

	var bodies [][]byte
	for i := 0; i < digestOps; i++ {
		bodies = append(bodies, w.spec(sc, seed, i))
	}
	specs := make([]service.JobSpec, len(bodies))
	var failed error
	m.set("service.decode_us", nsPerOp(4096, func(i int) {
		spec, err := service.DecodeJobSpec(bytes.NewReader(bodies[i%len(bodies)]))
		if err != nil {
			failed = err
			return
		}
		specs[i%len(bodies)] = *spec
	})/1e3, "us")
	if failed != nil {
		return nil, failed
	}
	m.set("service.spec_hash_us", nsPerOp(4096, func(i int) {
		if service.SpecHash(specs[i%len(specs)]) == "" {
			failed = fmt.Errorf("empty spec hash")
		}
	})/1e3, "us")
	return m, failed
}

// span is one timed interval of a traced operation. Spans of one op share
// its index; children name their parent span's ID.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Op      int     `json:"op"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// spans expands a traced window's operations into their span trees, with
// times relative to epoch. A failed op keeps the spans it reached.
func spans(epoch time.Time, win *window) []span {
	ops := append([]opResult(nil), win.ops...)
	sort.Slice(ops, func(i, j int) bool { return ops[i].index < ops[j].index })
	rel := func(t time.Time) float64 { return us(t.Sub(epoch)) }
	var out []span
	for _, r := range ops {
		root := len(out) + 1
		out = append(out, span{ID: root, Op: r.index, Name: "op", StartUS: rel(r.start), EndUS: rel(r.end)})
		for i, s := range r.steps {
			if s.start.IsZero() {
				break
			}
			out = append(out, span{ID: len(out) + 1, Parent: root, Op: r.index, Name: stepNames[i], StartUS: rel(s.start), EndUS: rel(s.end)})
		}
	}
	return out
}

// writeSpans writes the traced window's spans as one JSON array.
func writeSpans(path string, epoch time.Time, win *window) error {
	data, err := json.MarshalIndent(spans(epoch, win), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
