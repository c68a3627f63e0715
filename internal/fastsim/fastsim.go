package fastsim

import (
	"context"
	"fmt"
	"math"
	"sort"

	"bankaware/internal/core"
	"bankaware/internal/metrics"
	"bankaware/internal/nuca"
	"bankaware/internal/sim"
	"bankaware/internal/trace"
)

// System is the fast-path counterpart of sim.System: same construction
// inputs, same run protocol (cumulative instruction targets, stats reset,
// metrics recording) — but cores advance in closed form between epoch
// events instead of event by event. See the package comment for the model.
// A System is one policy's trajectory over a Scope, which holds everything
// that does not depend on the policy. The embedded sim.Accounting turns the
// modelled trajectories into results and run reports, exactly as it does
// the detailed engine's counters.
type System struct {
	*sim.Accounting
	scope *Scope

	// capSolves and replays are the capacity states and windows this
	// system has asked for, by exact key; their sizes are its
	// fastsim.capacity_solves and fastsim.replays gauges. The window
	// results are the scope's, shared with its other systems. missFlags
	// keeps each core's miss-flag storage from one replay this system runs
	// to the next.
	capSolves map[solveKey]*capSolve
	replays   map[windowKey]*windowResult
	missFlags [nuca.NumCores][]bool

	alloc allocKey // the installed allocation

	// Continuous per-core trajectories. clock is the core's local cycle
	// time (cores cluster after the resume snap; a finished core freezes),
	// instr the cumulative retired instructions (exactly integral at run
	// ends: finishes set the target exactly). The l1Acc/l2Acc/l2Miss
	// accumulators are expectations, rounded only by counters.
	clock, instr             [nuca.NumCores]float64
	l1Acc, l2Acc, l2Miss     [nuca.NumCores]float64
	profA                    [nuca.NumCores]float64
	epochMissCyc, epochMissN [nuca.NumCores]float64
	lastRepartN              [nuca.NumCores]float64
	finished                 [nuca.NumCores]bool

	nextEpoch float64

	curves   []core.MissCurve
	curveBuf [nuca.NumCores][]float64
}

// capSolve is one solved capacity state: steady-state miss ratios plus the
// cold-start transient schedule. The transient excess of core c,
//
//	extra(n) = sum over atoms with actN > n of mass * steadyHit,
//
// is the reuse that will eventually hit but is still a first touch n
// accesses into the stream. preH/preHN are prefix sums over the ascending
// activation thresholds for O(log) evaluation of extra(n) and of its exact
// integral over a segment.
type capSolve struct {
	m2          [nuca.NumCores]float64
	actN        [nuca.NumCores][]float64
	preH, preHN [nuca.NumCores][]float64
	totH        [nuca.NumCores]float64
	horizon     [nuca.NumCores]float64 // last threshold with any hit mass
}

// inactiveIdx returns the index of the first atom still inactive at access
// count n (ties count as active).
func (cs *capSolve) inactiveIdx(c int, n float64) int {
	a := cs.actN[c]
	i := sort.SearchFloat64s(a, n)
	for i < len(a) && a[i] <= n {
		i++
	}
	return i
}

// extraAt returns the transient excess miss ratio of core c at L2-access
// count n.
func (cs *capSolve) extraAt(c int, n float64) float64 {
	if len(cs.actN[c]) == 0 || n >= cs.horizon[c] {
		return 0
	}
	return cs.totH[c] - cs.preH[c][cs.inactiveIdx(c, n)]
}

// extraIntegral returns the exact integral of extra over [n0, n1] — the
// expected transient excess misses across a segment spanning n1-n0
// accesses.
func (cs *capSolve) extraIntegral(c int, n0, n1 float64) float64 {
	a := cs.actN[c]
	if len(a) == 0 || n1 <= n0 || n0 >= cs.horizon[c] {
		return 0
	}
	i0 := cs.inactiveIdx(c, n0)
	i1 := cs.inactiveIdx(c, n1)
	// Atoms in [i0, i1) deactivate inside the segment: each contributes
	// mass*hit * (actN - n0). Atoms >= i1 stay inactive the whole way:
	// mass*hit * (n1 - n0).
	mid := (cs.preHN[c][i1] - cs.preHN[c][i0]) - n0*(cs.preH[c][i1]-cs.preH[c][i0])
	tail := (n1 - n0) * (cs.totH[c] - cs.preH[c][i1])
	return mid + tail
}

// buildTransient fills core c's transient schedule from per-atom steady hit
// probabilities.
func (cs *capSolve) buildTransient(c int, p *profile, actN []float64, hit func(i int) float64) {
	n := len(p.atoms)
	cs.actN[c] = actN
	preH := make([]float64, n+1)
	preHN := make([]float64, n+1)
	for i, a := range p.atoms {
		h := a.mass * hit(i)
		preH[i+1] = preH[i] + h
		preHN[i+1] = preHN[i] + h*actN[i]
		if h > 1e-12 {
			cs.horizon[c] = actN[i]
		}
	}
	cs.preH[c] = preH
	cs.preHN[c] = preHN
	cs.totH[c] = preH[n]
}

// hashedIterations is how many rate→miss→CPI rounds the shared-cache fixed
// point runs. The model's rates converge geometrically; a fixed count keeps
// the result deterministic and path-independent.
const hashedIterations = 3

// m2Quantum is the miss-ratio granularity of the replay cache. CPI is a
// smooth function of the miss ratios, so evaluating it on a grid costs far
// less than the accuracy envelope and bounds the number of micro-replays
// per run.
const m2Quantum = 0.02

// New builds a fast-path system over the same inputs as sim.New, on a
// private scope. It rejects what NewScope rejects.
func New(cfg sim.Config, policy core.Policy, specs []trace.Spec) (*System, error) {
	sc, err := NewScope(cfg, specs)
	if err != nil {
		return nil, err
	}
	return sc.NewSystem(policy)
}

// l2Active reports whether core c emits any L2 traffic — the cores the
// resume snap applies to (see RunContext).
func (s *System) l2Active(c int) bool {
	p := s.scope.profs[c]
	return p.gapP*(1-p.h1) > 0 && (len(p.atoms) > 0 || p.coldMass > 0 || p.memPerKI > 0)
}

// repartition follows sim.System.repartition: read the (modelled) profiler
// curves, feed miss-cost weights to feedback policies, run the policy,
// validate and install the allocation, decay the profiler accumulators.
func (s *System) repartition(now float64) error {
	sc := s.scope
	if s.curves == nil {
		s.curves = make([]core.MissCurve, nuca.NumCores)
	}
	for c := 0; c < nuca.NumCores; c++ {
		buf := s.curveBuf[c]
		if buf == nil {
			buf = make([]float64, len(sc.shapes[c]))
			s.curveBuf[c] = buf
		}
		// Transient correction at the epoch's midpoint access count: reuse
		// still beyond the stream's footprint registers as a miss at every
		// way count — in the real MSA profiler exactly as in the banks.
		nMid := (s.lastRepartN[c] + s.l2Acc[c]) / 2
		idx := sort.SearchFloat64s(sc.actN[c], nMid)
		for idx < len(sc.actN[c]) && sc.actN[c][idx] <= nMid {
			idx++
		}
		for w := range buf {
			pre := sc.curveSH[c][w]
			excess := pre[len(pre)-1] - pre[idx]
			buf[w] = s.profA[c] * (sc.shapes[c][w] + excess)
		}
		s.curves[c] = core.MissCurve(buf)
		s.lastRepartN[c] = s.l2Acc[c]
	}
	policy := s.Policy()
	if fp, ok := policy.(core.FeedbackPolicy); ok {
		fp.SetFeedback(s.MissCostWeights(func(c int) (float64, float64) {
			return s.epochMissCyc[c], s.epochMissN[c]
		}))
	}
	alloc, err := policy.Allocate(s.curves)
	if err != nil {
		return fmt.Errorf("fastsim: %s allocation failed: %w", policy.Name(), err)
	}
	if err := alloc.Validate(); err != nil {
		return fmt.Errorf("fastsim: %s produced invalid allocation: %w", policy.Name(), err)
	}
	s.Install(alloc, int64(math.Round(now)))
	s.alloc = allocKey{owners: alloc.WayOwners, hashed: alloc.Hashed}
	for c := range s.profA {
		s.profA[c] *= 0.5
		s.epochMissCyc[c], s.epochMissN[c] = 0, 0
	}
	return nil
}

// capacityFor computes (or returns the cached) capacity state for the
// current allocation and active set: steady miss ratios plus the transient
// schedule.
func (s *System) capacityFor(key solveKey) *capSolve {
	if cs, ok := s.capSolves[key]; ok {
		return cs
	}
	sc := s.scope
	cs := &capSolve{}
	alloc := s.Allocation()
	if !alloc.Hashed {
		for c := 0; c < nuca.NumCores; c++ {
			if !key.runs(c) {
				continue
			}
			var groups []int
			total := 0
			for b := 0; b < nuca.NumBanks; b++ {
				if k := alloc.WaysIn(c, b); k > 0 {
					groups = append(groups, k)
					total += k
				}
			}
			p := sc.profs[c]
			cs.m2[c] = p.missPartitioned(sc.cfg.BankSets, groups)
			if total > 0 {
				g, t := groups, total
				cs.buildTransient(c, p, sc.actN[c], func(i int) float64 {
					return p.hitPartitioned(p.atoms[i], sc.cfg.BankSets, g, t)
				})
			}
		}
	} else {
		// Shared cache: per-core insertion rates depend on CPIs, which
		// depend on miss ratios, which depend on rates. A fixed number of
		// rounds from a fixed starting point keeps it deterministic.
		rates := make([]float64, nuca.NumCores)
		m2 := make([]float64, nuca.NumCores)
		m2Prev := make([]float64, nuca.NumCores)
		var cpi [nuca.NumCores]float64
		for c := range cpi {
			if key.runs(c) {
				cpi[c] = 2
			}
		}
		for iter := 0; iter < hashedIterations; iter++ {
			for c, p := range sc.profs {
				rates[c] = 0
				if key.runs(c) && cpi[c] > 0 {
					rates[c] = p.gapP * (1 - p.h1) / cpi[c]
				}
			}
			sc.sharedMissRatios(rates, m2Prev, m2)
			copy(m2Prev, m2)
			copy(cs.m2[:], m2)
			res := s.replayFor(key, cs.m2)
			cpi = res.cpi
		}
		for c, p := range sc.profs {
			if !key.runs(c) || len(p.atoms) == 0 {
				continue
			}
			cc := c
			cs.buildTransient(c, p, sc.actN[c], func(i int) float64 {
				return sc.hitShared(cc, i, rates, m2Prev)
			})
		}
	}
	s.capSolves[key] = cs
	return cs
}

// replayFor returns the micro-replay CPI/miss-latency for the given miss
// ratios (quantised to the replay grid) in capacity state key. The scope
// replays each distinct window once for all its systems; this system
// records the key either way.
func (s *System) replayFor(key solveKey, m2 [nuca.NumCores]float64) *windowResult {
	wk := windowKey{solveKey: key}
	for c := range m2 {
		if key.runs(c) {
			wk.m2[c] = gridIndex(m2[c])
		}
	}
	if r, ok := s.replays[wk]; ok {
		return r
	}
	r := s.scope.window(wk, &s.missFlags)
	s.replays[wk] = r
	return r
}

// RunContext advances the system until every core has retired at least
// `instructions` (a cumulative target, like sim.System.RunContext).
//
// Resume snap: when a run starts with cores at different local clocks (the
// measurement run after a warm-up run ends with each core frozen at its own
// finish time), every core with L2 traffic jumps to the latest frozen clock
// before retiring anything. This mirrors the detailed engine exactly: the
// shared DRAM-channel and link timelines sit at the warm-up frontier, so a
// resumed core's first miss queues behind them and the ROB stalls the core
// until that fill — a handful of instructions into the run. Measured CPI is
// therefore (frontier - own warm-up finish + active cycles) / instructions,
// which the golden detailed reports confirm.
func (s *System) RunContext(ctx context.Context, instructions uint64) error {
	tgt := float64(instructions)
	for c := range s.finished {
		s.finished[c] = s.instr[c] >= tgt
	}
	var frontier float64
	for c := range s.clock {
		if s.clock[c] > frontier {
			frontier = s.clock[c]
		}
	}
	for c := range s.clock {
		if !s.finished[c] && s.l2Active(c) && s.clock[c] < frontier {
			s.clock[c] = frontier
		}
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var active [nuca.NumCores]bool
		key := solveKey{alloc: s.alloc}
		nowMin := math.Inf(1)
		for c := range s.finished {
			if s.finished[c] {
				continue
			}
			active[c] = true
			key.active |= 1 << c
			if s.clock[c] < nowMin {
				nowMin = s.clock[c]
			}
		}
		if key.active == 0 {
			return nil
		}
		cs := s.capacityFor(key)
		// Effective miss ratios at the segment's starting access counts.
		// The transient's lag over a segment is bounded by the subdivision
		// rule below (a core's access count at most doubles per segment
		// while its transient is still decaying).
		var m2 [nuca.NumCores]float64
		for c := range active {
			if active[c] {
				m2[c] = cs.m2[c] + cs.extraAt(c, s.l2Acc[c])
			}
		}
		res := s.replayFor(key, m2)
		// Segment length: up to the epoch boundary (fired when the least
		// advanced active clock crosses it, like the min-clock scheduler),
		// the earliest core finish, or a doubling of a still-transient
		// core's access count.
		dt := s.nextEpoch - nowMin
		for c := range active {
			if !active[c] {
				continue
			}
			cpi := res.cpi[c]
			if cpi <= 0 {
				cpi = 1 / float64(s.scope.cfg.CPU.Width)
			}
			if dtF := (tgt - s.instr[c]) * cpi; dtF < dt {
				dt = dtF
			}
			p := s.scope.profs[c]
			if aps := p.gapP * (1 - p.h1); aps > 0 && s.l2Acc[c] < cs.horizon[c] {
				dn := s.l2Acc[c]
				if dn < 256 {
					dn = 256
				}
				if dtT := dn / aps * cpi; dtT < dt {
					dt = dtT
				}
			}
		}
		if dt < 0 {
			dt = 0
		}
		for c := range active {
			if !active[c] {
				continue
			}
			cpi := res.cpi[c]
			if cpi <= 0 {
				cpi = 1 / float64(s.scope.cfg.CPU.Width)
			}
			di := dt / cpi
			p := s.scope.profs[c]
			a1 := di * p.gapP
			a2 := a1 * (1 - p.h1)
			n0 := s.l2Acc[c]
			m := a2*cs.m2[c] + cs.extraIntegral(c, n0, n0+a2)
			s.instr[c] += di
			s.clock[c] += dt
			s.l1Acc[c] += a1
			s.l2Acc[c] += a2
			s.l2Miss[c] += m
			s.profA[c] += a2
			s.epochMissCyc[c] += m * res.missLat[c]
			s.epochMissN[c] += m
		}
		for c := range active {
			if active[c] && s.instr[c] >= tgt-1e-6 {
				s.instr[c] = tgt
				s.finished[c] = true
			}
		}
		if nowMin+dt >= s.nextEpoch-1e-6 {
			still := false
			for c := range s.finished {
				if !s.finished[c] {
					still = true
					break
				}
			}
			if still {
				now := nowMin + dt
				if err := s.repartition(now); err != nil {
					return err
				}
				s.nextEpoch = now + float64(s.scope.cfg.EpochCycles)
			}
		}
	}
}

func roundU(x float64) uint64 {
	if x <= 0 {
		return 0
	}
	return uint64(math.Round(x))
}

// counters is core c's sim.Accounting probe: the modelled trajectories,
// rounded to integers.
func (s *System) counters(c int) sim.Counters {
	return sim.Counters{
		Instructions: roundU(s.instr[c]),
		Cycles:       int64(math.Round(s.clock[c])),
		L1Accesses:   roundU(s.l1Acc[c]),
		L2Accesses:   roundU(s.l2Acc[c]),
		L2Misses:     roundU(s.l2Miss[c]),
	}
}

// registerGauges is the sim.Accounting registry probe. The fast engine has
// no per-component counters to register — its report's Metrics section
// carries the engine-level gauges only, which is part of why fast reports
// are distinct artifacts from detailed ones.
func (s *System) registerGauges(reg *metrics.Registry) {
	reg.RegisterFunc("fastsim.capacity_solves", func() float64 { return float64(len(s.capSolves)) })
	reg.RegisterFunc("fastsim.replays", func() float64 { return float64(len(s.replays)) })
}

// bankOccupancy is the sim.Accounting occupancy probe. It estimates
// resident lines per bank from each workload's working-set function: a
// core's touched-block count, capped at its partition capacity and spread
// over its banks proportionally to its ways.
func (s *System) bankOccupancy() []int {
	sc := s.scope
	alloc := s.Allocation()
	occ := make([]float64, nuca.NumBanks)
	bankCap := float64(sc.cfg.BankSets * nuca.WaysPerBank)
	for c := 0; c < nuca.NumCores; c++ {
		foot := sc.profs[c].distinctAfter(s.l2Acc[c])
		if alloc.Hashed {
			share := foot / nuca.NumBanks
			for b := range occ {
				occ[b] += share
			}
			continue
		}
		ways := alloc.Ways[c]
		if ways == 0 {
			continue
		}
		partCap := float64(ways * sc.cfg.BankSets)
		if foot > partCap {
			foot = partCap
		}
		for b := 0; b < nuca.NumBanks; b++ {
			if k := alloc.WaysIn(c, b); k > 0 {
				occ[b] += foot * float64(k) / float64(ways)
			}
		}
	}
	out := make([]int, nuca.NumBanks)
	for b := range occ {
		if occ[b] > bankCap {
			occ[b] = bankCap
		}
		out[b] = int(math.Round(occ[b]))
	}
	return out
}
