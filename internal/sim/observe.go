package sim

import (
	"bankaware/internal/core"
	"bankaware/internal/faults"
	"bankaware/internal/metrics"
	"bankaware/internal/nuca"
	"bankaware/internal/stats"
)

// Counters is one core's cumulative activity since the engine was built —
// the per-core input every engine feeds the run accounting. L2Accesses
// counts the L1 misses that went on to the L2.
type Counters struct {
	Instructions uint64
	Cycles       int64 // the core's local clock
	L1Accesses   uint64
	L2Accesses   uint64
	L2Misses     uint64
}

// sub returns the activity between an earlier snapshot and c.
func (c Counters) sub(base Counters) Counters {
	return Counters{
		Instructions: c.Instructions - base.Instructions,
		Cycles:       c.Cycles - base.Cycles,
		L1Accesses:   c.L1Accesses - base.L1Accesses,
		L2Accesses:   c.L2Accesses - base.L2Accesses,
		L2Misses:     c.L2Misses - base.L2Misses,
	}
}

// Probes are what an engine supplies to its Accounting; everything else in
// a run's result and report is computed once, here.
type Probes struct {
	// Counters returns core c's cumulative counters.
	Counters func(c int) Counters
	// Occupancy returns the resident lines of each L2 bank.
	Occupancy func() []int
	// Register adds the engine's own gauges to a recorder's registry.
	Register func(*metrics.Registry)
}

// Accounting is the run bookkeeping both simulation engines share. The
// engine reports each repartition through Install; Accounting owns the
// allocation in effect and the repartition count, the measurement window
// ResetStats opens, and — once EnableMetrics attaches a recorder — the
// epoch time series, the partition- and fault-event logs, and their export
// through Result and RunReport. sim.System and fastsim.System embed it, so
// both engines serve Result, RunReport, ResetStats and EnableMetrics from
// this one copy.
type Accounting struct {
	policy core.Policy
	plan   *faults.Plan
	probes Probes

	alloc  *core.Allocation
	epochs int

	// base is the snapshot ResetStats takes: Result reports the activity
	// since. win marks where the current epoch window started.
	base, win [nuca.NumCores]Counters
	rec       *metrics.Recorder
	// weights is reused by every MissCostWeights call, which is safe
	// because FeedbackPolicy.SetFeedback copies.
	weights [nuca.NumCores]float64
}

// NewAccounting returns the accounting for an engine running policy under
// the fault plan (nil for the healthy machine), reading the engine's state
// through probes.
func NewAccounting(policy core.Policy, plan *faults.Plan, probes Probes) *Accounting {
	return &Accounting{policy: policy, plan: plan, probes: probes}
}

// Policy returns the active policy.
func (a *Accounting) Policy() core.Policy { return a.policy }

// Allocation returns the current physical allocation.
func (a *Accounting) Allocation() *core.Allocation { return a.alloc }

// Epochs returns how many repartitionings have run (including the initial
// one).
func (a *Accounting) Epochs() int { return a.epochs }

// Install makes next the allocation in effect and counts the repartition.
// Engines call it at every repartition boundary (now is the cycle it fired
// at), after validating next and before acting on it. With a recorder
// attached it first closes the epoch window under the outgoing allocation,
// then logs what the policy changed and which faults open at this epoch.
func (a *Accounting) Install(next *core.Allocation, now int64) {
	if a.rec != nil && a.alloc != nil {
		a.sampleWindow(now)
		a.recordAllocEvents(next, a.alloc, len(a.rec.Samples), now)
		a.recordFaultEvents(a.plan.StartingAt(a.epochs), len(a.rec.Samples), now)
	}
	a.alloc = next
	a.epochs++
}

// MissCostWeights summarises the epoch's memory-subsystem pressure per
// core for feedback policies: each core's average miss latency, from the
// engine's per-epoch miss cycles and counts, relative to the across-core
// mean. Cores whose misses queued longest get weights above one. Cores with
// no misses report zero (FeedbackPolicy keeps their previous weight).
func (a *Accounting) MissCostWeights(missCost func(c int) (cycles, misses float64)) []float64 {
	avg := a.weights[:]
	var sum float64
	var n int
	for c := range avg {
		avg[c] = 0
		if cycles, misses := missCost(c); misses > 0 {
			avg[c] = cycles / misses
			sum += avg[c]
			n++
		}
	}
	if n == 0 {
		return avg
	}
	mean := sum / float64(n)
	for c := range avg {
		if avg[c] > 0 {
			avg[c] /= mean
		}
	}
	return avg
}

// EnableMetrics attaches the observation layer: the engine registers its
// gauges into the recorder's registry, and from now on each repartition
// closes a time-series window and logs the policy's allocation changes.
// Passing nil creates a fresh recorder. Call it once, right after
// construction; it returns the recorder in use.
func (a *Accounting) EnableMetrics(rec *metrics.Recorder) *metrics.Recorder {
	if rec == nil {
		rec = metrics.NewRecorder()
	}
	a.rec = rec
	a.probes.Register(rec.Registry)
	rec.Registry.RegisterFunc("sim.epochs", func() float64 { return float64(a.epochs) })
	a.openWindow()
	return rec
}

// ResetStats opens the measurement window at the current counters. The
// observation layer realigns with it: recorded samples and events are
// dropped and the current allocation and active faults are re-logged as
// the window's initial state.
func (a *Accounting) ResetStats() {
	a.base = a.snapshot()
	if a.rec != nil {
		a.rec.ResetSeries()
		a.openWindow()
	}
}

// openWindow starts an epoch window at the current counters and logs the
// allocation and faults in effect as its initial state (epoch 0).
func (a *Accounting) openWindow() {
	a.win = a.snapshot()
	now := maxNow(&a.win)
	a.recordAllocEvents(a.alloc, nil, 0, now)
	a.recordFaultEvents(a.plan.ActiveAt(a.epochs-1), 0, now)
}

func (a *Accounting) snapshot() (cur [nuca.NumCores]Counters) {
	for c := range cur {
		cur[c] = a.probes.Counters(c)
	}
	return cur
}

// maxNow returns the most advanced core clock — the system's notion of
// "now" for sampling purposes.
func maxNow(cur *[nuca.NumCores]Counters) int64 {
	var t int64
	for _, c := range cur {
		if c.Cycles > t {
			t = c.Cycles
		}
	}
	return t
}

// sampleWindow closes the epoch window ending at cycle now: per-core
// deltas since the window baselines, derived miss rate and IPC, the way
// allocation that was in effect, and per-bank occupancy. Windows with no
// activity are skipped, which makes the final flush idempotent.
func (a *Accounting) sampleWindow(now int64) {
	cur := a.snapshot()
	cores := make([]metrics.CoreSample, nuca.NumCores)
	active := false
	for c := range cur {
		d := cur[c].sub(a.win[c])
		cs := metrics.CoreSample{
			Instructions: d.Instructions,
			Cycles:       d.Cycles,
			L2Accesses:   d.L2Accesses,
			L2Misses:     d.L2Misses,
			Ways:         a.alloc.Ways[c],
		}
		if d.L2Accesses > 0 {
			cs.MissRate = float64(d.L2Misses) / float64(d.L2Accesses)
		}
		if d.Cycles > 0 {
			cs.IPC = float64(d.Instructions) / float64(d.Cycles)
		}
		if d.Instructions > 0 || d.L2Accesses > 0 {
			active = true
		}
		cores[c] = cs
	}
	if !active {
		return
	}
	a.win = cur
	sample := metrics.EpochSample{
		Epoch:         len(a.rec.Samples) + 1,
		EndCycle:      now,
		Cores:         cores,
		BankOccupancy: a.probes.Occupancy(),
	}
	a.rec.Samples = append(a.rec.Samples, sample)
	if a.rec.OnSample != nil {
		a.rec.OnSample(sample)
	}
}

// recordAllocEvents logs every core whose assignment differs between old
// and next (old may be nil: the initial install, every core reported).
func (a *Accounting) recordAllocEvents(next, old *core.Allocation, epoch int, cycle int64) {
	for _, ch := range next.DiffFrom(old) {
		a.rec.Events = append(a.rec.Events, metrics.PartitionEvent{
			Epoch:    epoch,
			Cycle:    cycle,
			Policy:   a.policy.Name(),
			Core:     ch.Core,
			OldWays:  ch.OldWays,
			NewWays:  ch.NewWays,
			OldBanks: ch.OldBanks,
			NewBanks: ch.NewBanks,
		})
	}
}

// recordFaultEvents logs injected faults into the recorder under the given
// epoch-window index (0 when re-logging the active set at the start of a
// measurement window).
func (a *Accounting) recordFaultEvents(evs []faults.Event, epoch int, cycle int64) {
	for _, ev := range evs {
		a.rec.Faults = append(a.rec.Faults, metrics.FaultEvent{
			Epoch:       epoch,
			Cycle:       cycle,
			Kind:        string(ev.Kind),
			Bank:        ev.Bank,
			ExtraCycles: ev.ExtraCycles,
			Amplitude:   ev.Amplitude,
			Duration:    ev.Duration,
		})
	}
}

// Result snapshots the measurement window (everything since the last
// ResetStats, or the whole run).
func (a *Accounting) Result(workloads []string) Result {
	r := Result{Policy: a.policy.Name(), Epochs: a.epochs}
	var cpis []float64
	cur := a.snapshot()
	for c := range cur {
		d := cur[c].sub(a.base[c])
		cr := CoreResult{
			Instructions: d.Instructions,
			Cycles:       d.Cycles,
			L1Accesses:   d.L1Accesses,
			L2Accesses:   d.L2Accesses,
			L2Misses:     d.L2Misses,
			Ways:         a.alloc.Ways[c],
		}
		if len(workloads) == nuca.NumCores {
			cr.Workload = workloads[c]
		}
		if d.Instructions > 0 {
			cr.CPI = float64(d.Cycles) / float64(d.Instructions)
			cpis = append(cpis, cr.CPI)
		}
		r.Cores[c] = cr
		r.TotalL2Accesses += cr.L2Accesses
		r.TotalL2Misses += cr.L2Misses
	}
	r.MissRatio = stats.Ratio(float64(r.TotalL2Misses), float64(r.TotalL2Accesses))
	r.MeanCPI = stats.Mean(cpis)
	return r
}

// RunReport exports the measurement window as a run report: the Result
// totals plus, when EnableMetrics is attached, the epoch time series, the
// partition- and fault-event logs, and a registry snapshot. It flushes the
// final partial epoch window first. name defaults to the policy name.
func (a *Accounting) RunReport(name string, workloads []string) metrics.RunReport {
	res := a.Result(workloads)
	if name == "" {
		name = res.Policy
	}
	rr := metrics.RunReport{
		Name:      name,
		Policy:    res.Policy,
		Workloads: append([]string(nil), workloads...),
		Epochs:    res.Epochs,
		Totals: metrics.RunTotals{
			L2Accesses: res.TotalL2Accesses,
			L2Misses:   res.TotalL2Misses,
			MissRatio:  res.MissRatio,
			MeanCPI:    res.MeanCPI,
		},
	}
	for _, cr := range res.Cores {
		ct := metrics.CoreTotals{
			Workload:     cr.Workload,
			Instructions: cr.Instructions,
			Cycles:       cr.Cycles,
			L1Accesses:   cr.L1Accesses,
			L2Accesses:   cr.L2Accesses,
			L2Misses:     cr.L2Misses,
			CPI:          cr.CPI,
			Ways:         cr.Ways,
		}
		if cr.L2Accesses > 0 {
			ct.MissRate = float64(cr.L2Misses) / float64(cr.L2Accesses)
		}
		if cr.Cycles > 0 {
			ct.IPC = float64(cr.Instructions) / float64(cr.Cycles)
		}
		rr.Cores = append(rr.Cores, ct)
	}
	if a.rec != nil {
		cur := a.snapshot()
		a.sampleWindow(maxNow(&cur))
		rr.EpochSeries = append([]metrics.EpochSample(nil), a.rec.Samples...)
		rr.PartitionEvents = append([]metrics.PartitionEvent(nil), a.rec.Events...)
		rr.FaultEvents = append([]metrics.FaultEvent(nil), a.rec.Faults...)
		rr.Metrics = a.rec.Registry.Snapshot()
	}
	return rr
}
