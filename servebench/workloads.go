package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"net/http/httptest"
	"os"
	"time"

	"bankaware"
	"bankaware/internal/service"
)

// scale sizes the jobs the workloads submit.
type scale struct {
	// sets is how many Table III sets the set workloads rotate through.
	sets int
	// detailedInstr and detailedEpoch are set-detailed's per-core budget
	// and repartitioning period; fastInstr is set-fast's budget (0: the
	// model default).
	detailedInstr uint64
	detailedEpoch int64
	fastInstr     uint64
	// ops fixes the operations per window; zero bounds the window by time
	// and enforces the percentile sample rule.
	ops int
}

// fullScale is the benchmark. smokeScale runs every code path on tiny jobs,
// two operations per window, in a few seconds.
var (
	fullScale  = scale{sets: 4, detailedInstr: 300_000, detailedEpoch: 200_000}
	smokeScale = scale{sets: 1, detailedInstr: 20_000, detailedEpoch: 20_000, fastInstr: 200_000, ops: 2}
)

// workload is one closed-loop traffic mix.
type workload struct {
	name string
	// spec returns the body of timed operation i.
	spec func(sc scale, seed uint64, i int) []byte
	// prime returns the bodies set-up runs before timing starts.
	prime func(sc scale, seed uint64) [][]byte
}

var workloads = []workload{
	{
		name: "set-detailed",
		spec: detailedSpec,
		prime: func(sc scale, seed uint64) [][]byte {
			return [][]byte{detailedSpec(sc, primeSeed(seed), 0)}
		},
	},
	{
		name: "set-fast",
		spec: fastSpec,
		// One job per Table III set builds every fastsim profile.
		prime: func(sc scale, seed uint64) [][]byte {
			var out [][]byte
			for i := 0; i < sc.sets; i++ {
				out = append(out, fastSpec(sc, primeSeed(seed), i))
			}
			return out
		},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// specSeed derives a job seed from the run seed, the workload and the op
// index: the same run seed submits the same jobs. Seeds stay below 2^52 so
// every JSON tool reads them exactly, and are never 0 (the campaign
// default).
func specSeed(seed uint64, name string, i int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, name, i)
	return h.Sum64()>>12 + 1
}

// primeSeed shifts a run seed into a domain the timed ops never use, so
// priming never warms the result cache for a timed op.
func primeSeed(seed uint64) uint64 { return ^seed }

func detailedSpec(sc scale, seed uint64, i int) []byte {
	return []byte(fmt.Sprintf(`{"kind":"set","seed":%d,"observe":true,"set":{"set":%d,"instructions":%d,"epochCycles":%d}}`,
		specSeed(seed, "set-detailed", i), i%sc.sets+1, sc.detailedInstr, sc.detailedEpoch))
}

func fastSpec(sc scale, seed uint64, i int) []byte {
	instr := ""
	if sc.fastInstr > 0 {
		instr = fmt.Sprintf(`,"instructions":%d`, sc.fastInstr)
	}
	return []byte(fmt.Sprintf(`{"kind":"set","seed":%d,"observe":true,"fidelity":"fast","set":{"set":%d%s}}`,
		specSeed(seed, "set-fast", i), i%sc.sets+1, instr))
}

// checkOps lists the operations whose served bytes are compared with a
// direct bankaware.Runner run after the window: the first job of each set.
func checkOps(sc scale) []int {
	out := make([]int, sc.sets)
	for i := range out {
		out[i] = i
	}
	return out
}

// env is one booted service: a fresh store behind a loopback server.
type env struct {
	dir string
	svc *service.Service
	ts  *httptest.Server
}

// boot starts a service with the default configuration on a fresh store
// under work.
func boot(work string) (*env, error) {
	dir, err := os.MkdirTemp(work, "store-*")
	if err != nil {
		return nil, err
	}
	svc, err := service.New(service.Config{Dir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := svc.Start(); err != nil {
		svc.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	return &env{dir: dir, svc: svc, ts: httptest.NewServer(svc.Handler())}, nil
}

func (e *env) close() {
	e.ts.Close()
	e.svc.Close()
	os.RemoveAll(e.dir)
}

// setup boots a service and runs the workload's priming operations; the
// returned duration is the set-up time at the reference clock.
func setup(ctx context.Context, work string, w workload, sc scale, seed uint64) (*env, time.Duration, error) {
	speed := hostScale()
	start := time.Now()
	e, err := boot(work)
	if err != nil {
		return nil, 0, err
	}
	c := newClient(e.ts.URL)
	defer c.close()
	for i, spec := range w.prime(sc, seed) {
		if r := c.do(ctx, i, spec, false); r.err != nil {
			e.close()
			return nil, 0, fmt.Errorf("priming %s: %w", w.name, r.err)
		}
	}
	return e, time.Duration(float64(time.Since(start)) * speed), nil
}

// window is one closed-loop measurement.
type window struct {
	ops   []opResult // attempted operations, in op order
	start time.Time
}

// runWindow drives the service closed-loop from one client: run the next
// op to its verified report, repeat, until the window has lasted dur and at
// least minOps ops completed (a slow host runs longer rather than report a
// percentile its sample cannot support). Op indexes start at first. Before
// each op, untimed, it measures the host's speed. Traced windows also read
// each job's timestamps from the store.
func runWindow(ctx context.Context, e *env, w workload, sc scale, seed uint64, first int, dur time.Duration, minOps int, traced bool) *window {
	keep := map[int]bool{}
	for _, i := range checkOps(sc) {
		keep[i] = true
	}
	c := newClient(e.ts.URL)
	defer c.close()
	win := &window{start: time.Now()}
	deadline := win.start.Add(dur)
	for n := 0; ctx.Err() == nil; n++ {
		if sc.ops > 0 && n >= sc.ops || sc.ops == 0 && n >= minOps && time.Now().After(deadline) {
			break
		}
		i := first + n
		speed := hostScale()
		r := c.do(ctx, i, w.spec(sc, seed, i), keep[i])
		r.speed = speed
		if traced && r.err == nil {
			storeTimings(e, &r)
		}
		win.ops = append(win.ops, r)
	}
	return win
}

// storeTimings reads the job's lifecycle timestamps from the store: queue
// wait, execution, and how long after the later of the job finishing and
// the stream opening the client saw the terminal frame. For cache hits the
// job finished before the op began, so notify is the stream's own latency.
func storeTimings(e *env, r *opResult) {
	rec, ok := e.svc.Store().Get(r.jobID)
	if !ok {
		return
	}
	events := r.steps[stepEvents]
	from := rec.FinishedAt
	if events.start.After(from) {
		from = events.start
	}
	r.queueWait, r.execute, r.notify = rec.StartedAt.Sub(rec.SubmittedAt), rec.FinishedAt.Sub(rec.StartedAt), events.end.Sub(from)
}

// failed counts the window's failed operations.
func (win *window) failed() int {
	n := 0
	for _, r := range win.ops {
		if r.err != nil {
			n++
		}
	}
	return n
}

// digestOps is how many leading operations report_digest covers; every
// window completes at least that many.
const digestOps = 16

// reportDigest hashes the served reports of the window's first n ops in op
// order. Simulated statistics repeat exactly, so the digest is identical
// across runs and commits for a seed.
func (win *window) reportDigest(n int) (string, error) {
	byIndex := map[int][32]byte{}
	for _, r := range win.ops {
		if r.err == nil {
			byIndex[r.index] = r.reportSum
		}
	}
	h := sha256.New()
	for i := 0; i < n; i++ {
		sum, ok := byIndex[i]
		if !ok {
			return "", fmt.Errorf("op %d has no verified report; the digest needs the first %d", i, n)
		}
		h.Write(sum[:])
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkDirect compares the served bytes of the window's check ops with
// direct bankaware.Runner runs of the same specs, the service's documented
// contract. Each mismatch fails its op; a check op that never completed is
// an error.
func checkDirect(ctx context.Context, win *window, w workload, sc scale, seed uint64) error {
	byIndex := map[int]*opResult{}
	for k := range win.ops {
		byIndex[win.ops[k].index] = &win.ops[k]
	}
	for _, i := range checkOps(sc) {
		r, ok := byIndex[i]
		if !ok || r.err != nil {
			return fmt.Errorf("check op %d did not complete", i)
		}
		want, err := directReport(ctx, w.spec(sc, seed, i))
		if err != nil {
			return fmt.Errorf("direct run of op %d: %w", i, err)
		}
		if !bytes.Equal(r.body, want) {
			r.err = fmt.Errorf("op %d: served report (%d bytes) differs from the direct Runner run (%d bytes)", i, len(r.body), len(want))
		}
	}
	return nil
}

// directReport runs body's set campaign through bankaware.Runner with
// WithReportWriter, WithSeed and WithFidelity and returns the report bytes.
func directReport(ctx context.Context, body []byte) ([]byte, error) {
	spec, err := service.DecodeJobSpec(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if spec.Kind != service.KindSet {
		return nil, fmt.Errorf("no direct run for kind %q", spec.Kind)
	}
	f, err := bankaware.ParseFidelity(spec.Fidelity)
	if err != nil {
		return nil, err
	}
	cfg := bankaware.ScaleModel.Config()
	if spec.Set.EpochCycles > 0 {
		cfg.EpochCycles = spec.Set.EpochCycles
	}
	set := spec.Set.Set
	var buf bytes.Buffer
	_, err = bankaware.NewRunner(bankaware.WithContext(ctx), bankaware.WithReportWriter(&buf),
		bankaware.WithSeed(spec.Seed), bankaware.WithFidelity(f)).
		RunSet(cfg, set, bankaware.TableIIISets[set-1][:], spec.Set.Instructions)
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
