package service

import (
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
)

// BenchmarkServiceSubmitThroughput measures the durable job-intake path at
// the service API layer — spec-hash computation, dedup lookup, record
// allocation, group-commit WAL append with its shared fsync, and
// priority-queue insert — with no executors attached, so the number is
// pure intake cost. Submissions run concurrently with unique seeds (every
// one is a cache miss), which is exactly the load Store.Put's group commit
// amortises: each commit's single fsync is shared by every submission
// that queued while the previous commit was syncing. The bench drives
// Service.SubmitDedup directly rather than POST /v1/jobs: the intake path
// lives below the HTTP handler, and on a small CI runner the HTTP
// client/server stack's per-request CPU would otherwise swamp the path
// under measurement (BenchmarkServiceCachedSubmit keeps an HTTP-level
// number). Durability is still the contract — every acked submission has
// ridden an fsync — so the figure is noisier than the CPU-bound simulator
// benches, and the perf gate applies a relaxed threshold to Service*
// entries.
func BenchmarkServiceSubmitThroughput(b *testing.B) {
	svc, _ := startHTTP(b, Config{QueueCap: 1 << 30, Workers: 2}, false)
	var seed atomic.Uint64
	b.ReportAllocs()
	b.SetParallelism(16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			spec := JobSpec{
				Kind:       KindMonteCarlo,
				Seed:       seed.Add(1),
				MonteCarlo: &MonteCarloSpec{Trials: 100},
			}
			if _, _, err := svc.SubmitDedup(spec, ""); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "submits/sec")
	}
}

// BenchmarkServiceCachedSubmit measures the content-addressed fast path:
// one tiny Monte Carlo job runs to completion, then every benchmark
// submission is a spec-hash duplicate of it — a 200 cache hit served from
// the store's dedup index with no simulation and no fsync. This is the
// steady-state cost of the "identical submission returns the stored
// report" contract.
func BenchmarkServiceCachedSubmit(b *testing.B) {
	svc, ts := startHTTP(b, Config{QueueCap: 1 << 30, Workers: 2}, true)
	body := `{"kind":"montecarlo","seed":77,"montecarlo":{"trials":2}}`
	resp, first := postJob(b, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		b.Fatalf("priming submit -> %d, want 202", resp.StatusCode)
	}
	waitState(b, svc, first.ID, StateDone)
	client := ts.Client()
	b.ReportAllocs()
	b.SetParallelism(16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := client.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			hit := resp.Header.Get("X-Bankaware-Cache")
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || hit != "hit" {
				b.Fatalf("cached submit -> %d cache=%q, want 200 hit", resp.StatusCode, hit)
			}
		}
	})
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "hits/sec")
	}
}
