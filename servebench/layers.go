package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"bankaware/internal/cache"
	"bankaware/internal/coherence"
	"bankaware/internal/core"
	"bankaware/internal/experiments"
	"bankaware/internal/fastsim"
	"bankaware/internal/interconnect"
	"bankaware/internal/mem"
	simmetrics "bankaware/internal/metrics"
	"bankaware/internal/msa"
	"bankaware/internal/nuca"
	"bankaware/internal/sim"
	"bankaware/internal/stats"
	"bankaware/internal/trace"
)

// panel replays the engine work the simulation workloads submit through
// each layer's public entry points and attributes host time per layer. It
// runs in a fresh process, so fastsim builds its profiles inside it.
func panel(ctx context.Context, sc scale, seed uint64) (metricSet, error) {
	m := metricSet{}
	probes := layerProbes()
	for name, ns := range probes {
		m.set(name, ns, "ns")
	}
	if err := detailedLayers(ctx, sc, seed, probes, m); err != nil {
		return nil, err
	}
	if err := policyUnits(ctx, sc, seed, m); err != nil {
		return nil, err
	}
	if err := fastLayers(ctx, sc, seed, m); err != nil {
		return nil, err
	}
	return m, nil
}

// sink keeps probe results observable so the compiler cannot drop the
// probed calls.
var sink uint64

// nsPerOp times n calls of op five times and returns the median ns per call.
func nsPerOp(n int, op func(i int)) float64 {
	xs := make([]float64, 5)
	for r := range xs {
		start := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		xs[r] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(xs)
}

// randomAddrs returns n block addresses drawn from span blocks.
func randomAddrs(seed uint64, n, span int) []trace.Addr {
	rng := stats.NewRNG(seed, seed+1)
	out := make([]trace.Addr, n)
	for i := range out {
		out[i] = trace.Addr(rng.IntN(span)) << trace.BlockBits
	}
	return out
}

// layerProbes measures each simulator layer's unit operation at the model
// machine's geometry, the ns/op the est_share attribution multiplies by the
// replay's counts.
func layerProbes() map[string]float64 {
	cfg := experiments.ScaleModel.Config()
	const n = 1 << 17
	const mask = n - 1
	out := map[string]float64{}

	var gens []*trace.Generator
	rng := stats.NewRNG(11, 12)
	for i, name := range experiments.TableIIISets[0] {
		gens = append(gens, trace.MustGenerator(trace.MustSpec(name), rng.Split(uint64(i)),
			trace.GeneratorConfig{BlocksPerWay: cfg.BankSets, Base: trace.Addr(uint64(i+1) << 40)}))
	}
	out["trace.next_ns"] = nsPerOp(n, func(i int) { sink += uint64(gens[i&7].Next().Gap) })

	addrs := randomAddrs(13, n, 4*cfg.BankSets*nuca.WaysPerBank)
	bank := cache.MustBank(cache.Config{Sets: cfg.BankSets, Ways: nuca.WaysPerBank})
	out["cache.access_ns"] = nsPerOp(n, func(i int) {
		if bank.Access(addrs[i&mask], i&7, i&3 == 3).Hit {
			sink++
		}
	})

	prof := msa.MustProfiler(cfg.Profiler)
	out["msa.access_ns"] = nsPerOp(n, func(i int) { prof.Access(addrs[i&mask]) })

	dirAddrs := randomAddrs(14, n, 1<<20)
	dir := coherence.NewDirectory()
	out["coherence.op_ns"] = nsPerOp(n, func(i int) {
		a, c := dirAddrs[i&mask], i&7
		if i&3 == 3 {
			dir.OnWriteMiss(c, a)
		} else {
			dir.OnReadMiss(c, a)
		}
		dir.OnL1Evict(c, dirAddrs[(i-8)&mask])
	})

	net := interconnect.MustNew(nuca.NumCores, (nuca.MaxLatency-nuca.MinLatency)/float64(2*7), cfg.FlitCycles)
	out["interconnect.transfer_ns"] = nsPerOp(n, func(i int) {
		sink += uint64(net.Transfer(i&7, (i>>3)&7, int64(i)*4, cfg.DataFlits))
	})

	dram := mem.MustMemory(1, cfg.Mem)
	out["mem.request_ns"] = nsPerOp(n, func(i int) {
		sink += uint64(dram.Request(uint64(addrs[i&mask]), int64(i)*40))
	})
	return out
}

// setPolicies are the three policies a set job evaluates, in evaluation
// order (experiments' set policy prototypes).
func setPolicies() [3]core.Policy {
	return [3]core.Policy{core.NoPartitionPolicy{}, core.EqualPolicy{}, core.NewBankAwarePolicy()}
}

// countingStream counts the trace events the simulator consumes.
type countingStream struct {
	trace.Stream
	n *uint64
}

func (s countingStream) Next() trace.Event {
	*s.n++
	return s.Stream.Next()
}

// timedPolicy times every Allocate call. sim type-asserts the optional
// core.FeedbackPolicy and core.DegradedPolicy interfaces; the set policies
// take no feedback and are degraded only under a fault plan, which replays
// never carry, so forwarding Allocate alone keeps the run identical.
type timedPolicy struct {
	core.Policy
	calls int
	busy  time.Duration
}

func newTimedPolicy(p core.Policy) (*timedPolicy, error) {
	if _, ok := p.(core.FeedbackPolicy); ok {
		return nil, fmt.Errorf("policy %s takes feedback, which the timing wrapper would hide", p.Name())
	}
	return &timedPolicy{Policy: p}, nil
}

func (p *timedPolicy) Allocate(curves []core.MissCurve) (*core.Allocation, error) {
	start := time.Now()
	a, err := p.Policy.Allocate(curves)
	p.busy += time.Since(start)
	p.calls++
	return a, err
}

// unitStats is one replayed simulation's measurement phase.
type unitStats struct {
	result  sim.Result
	measure time.Duration
	events  uint64
	dir     coherence.Stats
	net     interconnect.Stats
	dram    mem.Stats
	allocs  int
	busy    time.Duration
}

// replayDetailed runs one (set, policy) unit as the service does (warm-up
// to half the budget, stats reset, run to the full budget, observation
// on), but built with sim.NewWithStreams over counting streams and a
// timing policy. The streams are derived from cfg.Seed exactly as sim.New
// derives them.
func replayDetailed(ctx context.Context, cfg sim.Config, workloads []string, proto core.Policy, instr uint64) (unitStats, error) {
	var events uint64
	rng := stats.NewRNG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15)
	streams := make([]trace.Stream, len(workloads))
	for i, name := range workloads {
		spec, err := trace.SpecByName(name)
		if err != nil {
			return unitStats{}, err
		}
		g, err := trace.NewGenerator(spec, rng.Split(uint64(i)), trace.GeneratorConfig{
			BlocksPerWay: cfg.BankSets,
			Base:         trace.Addr(uint64(i+1) << 40),
		})
		if err != nil {
			return unitStats{}, err
		}
		streams[i] = countingStream{Stream: g, n: &events}
	}
	pol, err := newTimedPolicy(core.ClonePolicy(proto))
	if err != nil {
		return unitStats{}, err
	}
	sys, err := sim.NewWithStreams(cfg, pol, streams)
	if err != nil {
		return unitStats{}, err
	}
	sys.EnableMetrics(simmetrics.NewRecorder())
	if err := sys.RunContext(ctx, instr/2); err != nil {
		return unitStats{}, err
	}
	sys.ResetStats()
	pol.calls, pol.busy, events = 0, 0, 0
	start := time.Now()
	if err := sys.RunContext(ctx, instr); err != nil {
		return unitStats{}, err
	}
	return unitStats{
		result: sys.Result(workloads), measure: time.Since(start), events: events,
		dir: sys.DirectoryStats(), net: sys.NetworkStats(), dram: sys.DRAMStats(),
		allocs: pol.calls, busy: pol.busy,
	}, nil
}

// detailedConfig is the simulator configuration of set-detailed's op i.
func detailedConfig(sc scale, seed uint64, i int) sim.Config {
	cfg := experiments.ScaleModel.Config()
	cfg.EpochCycles = sc.detailedEpoch
	cfg.Seed = specSeed(seed, "set-detailed", i)
	return cfg
}

// detailedLayers replays one unit of each of set-detailed's first sets
// (op i's set under policy i mod 3, with op i's seed) and attributes the
// measured phases' host time per layer: counts from sim.Result and the
// component stats, times the probed ns/op, over RunContext time.
func detailedLayers(ctx context.Context, sc scale, seed uint64, probes map[string]float64, m metricSet) error {
	var (
		measure, busy                       time.Duration
		events, l2, l2miss, dirOps          uint64
		transfers, netQueue, memReq, memQue uint64
		allocs, repartitions                int
		instr                               uint64
	)
	protos := setPolicies()
	for i := 0; i < sc.sets; i++ {
		u, err := replayDetailed(ctx, detailedConfig(sc, seed, i), experiments.TableIIISets[i][:], protos[i%3], sc.detailedInstr)
		if err != nil {
			return err
		}
		measure += u.measure
		busy += u.busy
		events += u.events
		l2 += u.result.TotalL2Accesses
		l2miss += u.result.TotalL2Misses
		dirOps += u.dir.ReadMisses + u.dir.WriteMisses + u.dir.Upgrades
		transfers += u.net.Transfers
		netQueue += u.net.QueueCycles
		memReq += u.dram.Requests
		memQue += u.dram.QueueCycles
		allocs += u.allocs
		repartitions += u.result.Epochs
		for _, c := range u.result.Cores {
			instr += c.Instructions
		}
	}
	t := float64(measure.Nanoseconds())
	shares := map[string]float64{
		"trace.share":            float64(events) * probes["trace.next_ns"] / t,
		"cache.est_share":        float64(events+l2) * probes["cache.access_ns"] / t,
		"msa.est_share":          float64(l2) * probes["msa.access_ns"] / t,
		"coherence.est_share":    float64(dirOps) * probes["coherence.op_ns"] / t,
		"interconnect.est_share": float64(transfers) * probes["interconnect.transfer_ns"] / t,
		"mem.est_share":          float64(memReq) * probes["mem.request_ns"] / t,
		"core.share":             float64(busy.Nanoseconds()) / t,
	}
	residual := 1.0
	for name, v := range shares {
		m.set(name, v, "ratio")
		residual -= v
	}
	m.set("sim.residual_share", residual, "ratio")
	m.set("sim.events", float64(events), "count")
	m.set("sim.ns_per_event", t/float64(events), "ns")
	m.set("sim.repartitions", float64(repartitions), "count")
	m.set("sim.minstr_per_s", float64(instr)/measure.Seconds()/1e6, "Minstr/s")
	m.set("cache.l2_accesses", float64(l2), "count")
	m.set("cache.l2_miss_ratio", float64(l2miss)/float64(l2), "ratio")
	m.set("coherence.ops", float64(dirOps), "count")
	m.set("interconnect.transfers", float64(transfers), "count")
	m.set("interconnect.queue_cycles_per_transfer", float64(netQueue)/float64(transfers), "cycles")
	m.set("mem.requests", float64(memReq), "count")
	m.set("mem.queue_cycles_per_request", float64(memQue)/float64(memReq), "cycles")
	m.set("core.allocations", float64(allocs), "count")
	m.set("core.allocate_us", us(busy)/float64(allocs), "us")
	return nil
}

// policyUnits times set-detailed op 0's three policy units one by one
// through experiments.RunSetPolicyContext, then the whole set through
// RunSetContext, whose runner fans the units out over the workers.
func policyUnits(ctx context.Context, sc scale, seed uint64, m metricSet) error {
	cfg := detailedConfig(sc, seed, 0)
	workloads := experiments.TableIIISets[0][:]
	opt := experiments.Options{Seed: cfg.Seed, Observe: true}
	var units []float64
	var total time.Duration
	for p := 0; p < experiments.SetPolicies; p++ {
		start := time.Now()
		if _, err := experiments.RunSetPolicyContext(ctx, cfg, workloads, sc.detailedInstr, p, opt); err != nil {
			return err
		}
		d := time.Since(start)
		units = append(units, ms(d))
		total += d
	}
	start := time.Now()
	if _, err := experiments.RunSetContext(ctx, cfg, 1, workloads, sc.detailedInstr, opt); err != nil {
		return err
	}
	wall := time.Since(start)
	workers := min(runtime.GOMAXPROCS(0), experiments.SetPolicies)
	m.set("experiments.policy_run_ms", median(units), "ms")
	m.set("runner.utilization", total.Seconds()/(float64(workers)*wall.Seconds()), "ratio")
	return nil
}

// fastLayers replays one unit of each of set-fast's first sets through
// fastsim: the first New per set builds that set's missing profiles, a
// second New measures construction alone, then the warm-up and measured
// phases run as the service runs them.
func fastLayers(ctx context.Context, sc scale, seed uint64, m metricSet) error {
	instr := sc.fastInstr
	if instr == 0 {
		instr = experiments.ScaleModel.DefaultInstructions()
	}
	var build, total time.Duration
	var news, warms, measures []float64
	protos := setPolicies()
	for i := 0; i < sc.sets; i++ {
		cfg := experiments.ScaleModel.Config()
		cfg.Seed = specSeed(seed, "set-fast", i)
		specs := make([]trace.Spec, nuca.NumCores)
		for c, name := range experiments.TableIIISets[i] {
			specs[c] = trace.MustSpec(name)
		}
		start := time.Now()
		if _, err := fastsim.New(cfg, core.ClonePolicy(protos[i%3]), specs); err != nil {
			return err
		}
		cold := time.Since(start)
		start = time.Now()
		sys, err := fastsim.New(cfg, core.ClonePolicy(protos[i%3]), specs)
		if err != nil {
			return err
		}
		warmNew := time.Since(start)
		sys.EnableMetrics(simmetrics.NewRecorder())
		start = time.Now()
		if err := sys.RunContext(ctx, instr/2); err != nil {
			return err
		}
		warmup := time.Since(start)
		sys.ResetStats()
		start = time.Now()
		if err := sys.RunContext(ctx, instr); err != nil {
			return err
		}
		measure := time.Since(start)
		build += max(cold-warmNew, 0)
		total += warmNew + warmup + measure
		news, warms, measures = append(news, ms(warmNew)), append(warms, ms(warmup)), append(measures, ms(measure))
	}
	m.set("fastsim.profile_build_ms", ms(build), "ms")
	m.set("fastsim.new_ms", median(news), "ms")
	m.set("fastsim.warmup_ms", median(warms), "ms")
	m.set("fastsim.measure_ms", median(measures), "ms")
	// RunContext runs to a total budget: warm-up and measurement together
	// simulate instr per core.
	simulated := float64(sc.sets) * nuca.NumCores * float64(instr)
	m.set("fastsim.minstr_per_s", simulated/total.Seconds()/1e6, "Minstr/s")
	return nil
}
