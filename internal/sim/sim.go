// Package sim assembles the full-system simulator that stands in for the
// paper's Simics+GEMS environment: eight trace-driven cores with private
// L1s, the 16-bank DNUCA L2 with vertical way-partitioning, a MOESI
// directory, the chain interconnect, a bandwidth-limited DRAM channel, and
// an epoch controller that re-runs the active partitioning policy on the
// MSA profilers' curves every epoch (100 M cycles in the paper).
//
// It is a discrete-event simulation: each core is an event source ordered
// by its local clock; shared resources (banks, links, DRAM) are
// resource-timeline models queried at issue time. Cores are processed in
// clock order, so timeline queries are near-monotone and contention is
// modelled faithfully at the fidelity the paper's experiments need (miss
// rates and CPI deltas between policies).
package sim

import (
	"context"
	"fmt"
	"math/bits"

	"bankaware/internal/cache"
	"bankaware/internal/coherence"
	"bankaware/internal/core"
	"bankaware/internal/cpu"
	"bankaware/internal/faults"
	"bankaware/internal/interconnect"
	"bankaware/internal/mem"
	"bankaware/internal/metrics"
	"bankaware/internal/msa"
	"bankaware/internal/nuca"
	"bankaware/internal/stats"
	"bankaware/internal/trace"
)

// Config carries the Table I machine parameters plus simulation knobs.
type Config struct {
	// BankSets is the set count of each L2 bank (2048 for the paper's
	// 1 MB banks). One way-equivalent of the 128-way-equivalent L2 is
	// BankSets blocks, so scaling this down scales the whole machine —
	// tests and benches run a proportionally smaller model to keep
	// working-set build-up (the paper's 1B-instruction fast-forward)
	// affordable. The Profiler's Sets and the workload generators'
	// BlocksPerWay follow this value.
	BankSets int
	// L1 geometry: 64 KB, 2-way, 64 B blocks -> 512 sets x 2 ways.
	L1 cache.Config
	// CPU is the core timing model configuration.
	CPU cpu.Config
	// Mem is the DRAM channel configuration.
	Mem mem.Config
	// MemChannels is the number of interleaved DRAM channels sharing the
	// Table I aggregate bandwidth (0 or 1 = the single-channel baseline).
	MemChannels int
	// L2Replacement selects every L2 bank's victim policy. The paper
	// models true LRU (the default); TreePLRU quantifies the realistic-
	// hardware approximation (see the PLRU ablation).
	L2Replacement cache.ReplacementPolicy
	// L2StrictLookup restricts L2 hits to a core's own ways (the literal
	// reading of Section III.B); the default lazy mode lets repartitioned
	// blocks age out while still serving hits. See cache.Config.
	L2StrictLookup bool
	// Profiler configures the per-core MSA monitors.
	Profiler msa.Config
	// EpochCycles is the repartitioning period (100 M in the paper;
	// tests and benches scale it down along with their run lengths).
	EpochCycles int64
	// AdaptiveEpochs enables early repartitioning on phase changes: the
	// controller samples each core's L2 miss volume every quarter epoch
	// and repartitions immediately when a core's behaviour shifts by more
	// than 2x with meaningful volume, instead of waiting out the period.
	// An extension beyond the paper's fixed 100M-cycle epochs.
	AdaptiveEpochs bool
	// BankBusyCycles is a bank's occupancy per access (pipelining limit).
	BankBusyCycles int64
	// ReqFlits and DataFlits size request and data messages in flits.
	ReqFlits, DataFlits int64
	// FlitCycles is the per-link serialisation time of one flit.
	FlitCycles int64
	// InvalidationCycles is the extra latency charged per coherence
	// invalidation performed on the critical path.
	InvalidationCycles int64
	// Seed drives all workload randomness.
	Seed uint64
	// Faults is an optional fault-injection plan, consumed at repartition
	// boundaries: failed banks are removed from service (contents lost, the
	// policy re-partitions the survivors), slow banks and DRAM spikes add
	// latency, and profiler faults perturb the curves the policy sees. Nil
	// simulates the healthy machine.
	Faults *faults.Plan
}

// DefaultConfig returns the paper's baseline machine.
func DefaultConfig() Config {
	return Config{
		BankSets:           nuca.BankSets,
		L1:                 cache.Config{Sets: 512, Ways: 2},
		CPU:                cpu.DefaultConfig(),
		Mem:                mem.DefaultConfig(),
		Profiler:           msa.BaselineHardware(),
		EpochCycles:        100_000_000,
		BankBusyCycles:     2,
		ReqFlits:           1,
		DataFlits:          2, // 64 B line over 32 B-wide links
		FlitCycles:         1,
		InvalidationCycles: 20,
		Seed:               1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := (cache.Config{Sets: c.BankSets, Ways: nuca.WaysPerBank, Replacement: c.L2Replacement}).Validate(); err != nil {
		return fmt.Errorf("sim: bad bank geometry: %w", err)
	}
	// Cache geometries are power-of-two checked above/below; also bound
	// them so a corrupt config cannot demand absurd allocations.
	if c.BankSets > 1<<20 {
		return fmt.Errorf("sim: bank sets %d exceeds supported maximum %d", c.BankSets, 1<<20)
	}
	if c.L1.Sets > 1<<20 {
		return fmt.Errorf("sim: L1 sets %d exceeds supported maximum %d", c.L1.Sets, 1<<20)
	}
	if c.Profiler.Sets != c.BankSets {
		return fmt.Errorf("sim: profiler sets %d must match bank sets %d (both view the 128-way-equivalent L2)",
			c.Profiler.Sets, c.BankSets)
	}
	if err := c.L1.Validate(); err != nil {
		return err
	}
	if err := c.CPU.Validate(); err != nil {
		return err
	}
	if err := c.Mem.Validate(); err != nil {
		return err
	}
	if err := c.Profiler.Validate(); err != nil {
		return err
	}
	if c.MemChannels < 0 || (c.MemChannels > 1 && c.MemChannels&(c.MemChannels-1) != 0) {
		return fmt.Errorf("sim: memory channels must be 0/1 or a power of two, got %d", c.MemChannels)
	}
	if c.EpochCycles < 1 {
		return fmt.Errorf("sim: epoch must be positive, got %d", c.EpochCycles)
	}
	if c.BankBusyCycles < 0 || c.FlitCycles < 0 || c.ReqFlits < 0 || c.DataFlits < 0 || c.InvalidationCycles < 0 {
		return fmt.Errorf("sim: negative latency parameter")
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	return nil
}

// System is one simulated machine instance. Its embedded Accounting owns
// the allocation in effect and turns the per-core counters into results
// and run reports.
type System struct {
	*Accounting
	cfg Config

	cores   []*cpu.Core
	streams []trace.Stream
	l1s     []*cache.Bank
	banks   [nuca.NumBanks]*cache.Bank
	dir     *coherence.Directory
	net     *interconnect.Network
	dram    *mem.Memory
	profs   []*msa.Profiler

	coreBanks [nuca.NumCores][]int // per-core placement ring (bank repeated per owned way)
	bankList  [nuca.NumCores][]int // per-core owned banks, unique, in bank order
	rr        [nuca.NumCores]int
	bankFree  [nuca.NumBanks]int64

	// Repartition and back-invalidation scratch, reused across epochs and
	// events so the steady-state step loop allocates nothing. Curve buffers
	// come in two sets ping-ponged between epochs: lastCurves always refers
	// to the set written one epoch ago, so the stale-profiler replay reads
	// intact data while the other set is overwritten in place. ownerBuf is
	// safe to reuse because SetWayOwners copies.
	curveSets [2][]core.MissCurve
	curveBufs [2][nuca.NumCores][]float64
	curveFlip int
	ownerBuf  [nuca.WaysPerBank]cache.OwnerMask
	invalBuf  []int

	// Active fault state, refreshed at each repartition boundary from
	// cfg.Faults: the added per-bank access latency, the failed set
	// installed last, the surviving-bank list the hashed baseline maps
	// onto, and the last curves the policy saw (the stale-profiler model
	// replays them).
	bankExtra  [nuca.NumBanks]int64
	prevFailed nuca.BankSet
	survBanks  []int
	lastCurves []core.MissCurve

	nextEpoch int64
	nextCheck int64
	// quarter-window miss volumes for the adaptive-epoch phase detector.
	quarterMisses, prevQuarter [nuca.NumCores]uint64

	// Cumulative per-core access counters; Accounting reads them through
	// counters and takes the measurement baseline.
	l1Hits, l1Misses [nuca.NumCores]uint64
	l2Hits, l2Misses [nuca.NumCores]uint64
	finished         [nuca.NumCores]bool

	// Per-epoch miss-latency accounting, feeding FeedbackPolicy
	// implementations (the bandwidth-aware extension).
	epochMissCycles [nuca.NumCores]int64
	epochMisses     [nuca.NumCores]uint64

	// missLat is the L2 miss-latency histogram (nil unless EnableMetrics
	// was called).
	missLat *metrics.Histogram
}

// New builds a system running the given workload specs (one per core) under
// the policy, over the streams Generators derives.
func New(cfg Config, policy core.Policy, specs []trace.Spec) (*System, error) {
	gens, err := Generators(cfg, specs)
	if err != nil {
		return nil, err
	}
	streams := make([]trace.Stream, len(gens))
	for i, g := range gens {
		streams[i] = g
	}
	return NewWithStreams(cfg, policy, streams)
}

// Generators derives the per-core workload generators New runs: core i's
// stream is a pure function of cfg.Seed, cfg.BankSets, specs[i] and i, so
// every system built from the same inputs consumes the same streams.
func Generators(cfg Config, specs []trace.Spec) ([]*trace.Generator, error) {
	if len(specs) != nuca.NumCores {
		return nil, fmt.Errorf("sim: need %d workload specs, got %d", nuca.NumCores, len(specs))
	}
	rng := stats.NewRNG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15)
	gens := make([]*trace.Generator, len(specs))
	for i, s := range specs {
		g, err := trace.NewGenerator(s, rng.Split(uint64(i)), trace.GeneratorConfig{
			BlocksPerWay: cfg.BankSets,
			Base:         trace.Addr(uint64(i+1) << 40), // disjoint per-core regions
		})
		if err != nil {
			return nil, err
		}
		gens[i] = g
	}
	return gens, nil
}

// NewWithStreams builds a system over caller-provided access streams (e.g.
// phased generators or sharing workloads).
func NewWithStreams(cfg Config, policy core.Policy, streams []trace.Stream) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(streams) != nuca.NumCores {
		return nil, fmt.Errorf("sim: need %d streams, got %d", nuca.NumCores, len(streams))
	}
	if policy == nil {
		return nil, fmt.Errorf("sim: nil policy")
	}
	s := &System{
		cfg:     cfg,
		streams: streams,
		dir:     coherence.NewDirectory(),
		// One-way per-hop wire latency: half of the paper's 60/7-cycle
		// round-trip hop cost.
		net: interconnect.MustNew(nuca.NumCores, (nuca.MaxLatency-nuca.MinLatency)/float64(2*7), cfg.FlitCycles),
	}
	channels := cfg.MemChannels
	if channels == 0 {
		channels = 1
	}
	dram, err := mem.NewMemory(channels, cfg.Mem)
	if err != nil {
		return nil, err
	}
	s.dram = dram
	for c := 0; c < nuca.NumCores; c++ {
		s.cores = append(s.cores, cpu.MustNew(c, cfg.CPU))
		s.l1s = append(s.l1s, cache.MustBank(cfg.L1))
		s.profs = append(s.profs, msa.MustProfiler(cfg.Profiler))
	}
	for b := range s.banks {
		bank, err := cache.NewBank(cache.Config{
			Sets:         cfg.BankSets,
			Ways:         nuca.WaysPerBank,
			Replacement:  cfg.L2Replacement,
			StrictLookup: cfg.L2StrictLookup,
		})
		if err != nil {
			return nil, err
		}
		s.banks[b] = bank
	}
	s.Accounting = NewAccounting(policy, cfg.Faults, Probes{
		Counters:  s.counters,
		Occupancy: s.bankOccupancy,
		Register:  s.registerMetrics,
	})
	s.nextEpoch = cfg.EpochCycles
	s.nextCheck = cfg.EpochCycles / 4
	if err := s.repartition(0); err != nil {
		return nil, err
	}
	return s, nil
}

// counters is core c's Accounting probe. Every L1 miss goes on to the L2
// within the same step, so L1 misses are the L2 accesses.
func (s *System) counters(c int) Counters {
	return Counters{
		Instructions: s.cores[c].Instructions(),
		Cycles:       s.cores[c].Now(),
		L1Accesses:   s.l1Hits[c] + s.l1Misses[c],
		L2Accesses:   s.l1Misses[c],
		L2Misses:     s.l2Misses[c],
	}
}

// bankOccupancy is the Accounting probe for resident lines per L2 bank.
func (s *System) bankOccupancy() []int {
	occ := make([]int, nuca.NumBanks)
	for b := range s.banks {
		occ[b] = s.banks[b].ValidLines()
	}
	return occ
}

// missLatencyBounds bucket the end-to-end L2 miss latency (issue to fill)
// around the 260-cycle DRAM access plus network and queueing.
var missLatencyBounds = []float64{300, 400, 600, 1000, 2000, 5000}

// registerMetrics is the Accounting probe that registers every component's
// counters and starts the L2 miss-latency histogram.
func (s *System) registerMetrics(reg *metrics.Registry) {
	for c := 0; c < nuca.NumCores; c++ {
		s.cores[c].RegisterMetrics(reg, fmt.Sprintf("cpu.core%d", c))
		s.l1s[c].RegisterMetrics(reg, fmt.Sprintf("l1.core%d", c))
		s.profs[c].RegisterMetrics(reg, fmt.Sprintf("msa.core%d", c))
	}
	for b := range s.banks {
		s.banks[b].RegisterMetrics(reg, fmt.Sprintf("l2.bank%d", b))
	}
	s.dram.RegisterMetrics(reg, "dram")
	s.net.RegisterMetrics(reg, "net")
	s.dir.RegisterMetrics(reg, "coherence")
	s.missLat = reg.Histogram("l2.miss_latency", missLatencyBounds)
}

// DirectoryStats returns the MOESI directory's protocol counters.
func (s *System) DirectoryStats() coherence.Stats { return s.dir.Stats() }

// DirectoryStateOf reports core's coherence state for addr.
func (s *System) DirectoryStateOf(addr trace.Addr, core int) coherence.State {
	return s.dir.StateOf(addr, core)
}

// NetworkStats returns the interconnect's counters.
func (s *System) NetworkStats() interconnect.Stats { return s.net.Stats() }

// DRAMStats returns the memory channel's counters.
func (s *System) DRAMStats() mem.Stats { return s.dram.Stats() }

// repartition runs the policy on the profilers' current curves and installs
// the resulting way masks. now is the cycle at which the boundary fired
// (zero for the initial allocation); Install samples the closing epoch
// window and records the allocation diff before the new masks take effect.
func (s *System) repartition(now int64) error {
	epoch := s.epochs
	snap := s.cfg.Faults.At(epoch)
	// A newly failed bank loses its contents; the inclusive hierarchy
	// back-invalidates every upper-level copy, exactly as on an eviction.
	if newly := snap.Failed &^ s.prevFailed; newly != 0 {
		for _, b := range newly.Banks() {
			for _, addr := range s.banks[b].Clear() {
				var invalidated []int
				invalidated, _ = s.dir.OnL2EvictAppend(addr, s.invalBuf[:0])
				s.invalBuf = invalidated
				for _, p := range invalidated {
					s.l1s[p].Invalidate(addr)
				}
			}
		}
	}
	flip := s.curveFlip
	s.curveFlip = 1 - flip
	curves := s.curveSets[flip]
	if curves == nil {
		curves = make([]core.MissCurve, nuca.NumCores)
		s.curveSets[flip] = curves
	}
	if snap.Stale && s.lastCurves != nil {
		// Stuck profiler: the policy decides on the previous epoch's view.
		copy(curves, s.lastCurves)
	} else {
		bufs := &s.curveBufs[flip]
		for c := range curves {
			bufs[c] = s.profs[c].MissCurveInto(bufs[c])
			mc := bufs[c]
			if snap.NoiseAmplitude > 0 {
				mc = msa.NoisyCurve(mc, snap.NoiseAmplitude, s.cfg.Faults.RNG(epoch, c))
			}
			curves[c] = core.MissCurve(mc)
		}
		s.lastCurves = curves
	}
	if fp, ok := s.policy.(core.FeedbackPolicy); ok {
		fp.SetFeedback(s.MissCostWeights(func(c int) (float64, float64) {
			return float64(s.epochMissCycles[c]), float64(s.epochMisses[c])
		}))
	}
	var alloc *core.Allocation
	var err error
	if snap.Failed != 0 {
		dp, ok := s.policy.(core.DegradedPolicy)
		if !ok {
			return fmt.Errorf("sim: policy %s cannot re-partition around failed banks %v",
				s.policy.Name(), snap.Failed)
		}
		alloc, err = dp.AllocateDegraded(curves, snap.Failed)
	} else {
		alloc, err = s.policy.Allocate(curves)
	}
	if err != nil {
		return fmt.Errorf("sim: %s allocation failed: %w", s.policy.Name(), err)
	}
	if alloc.Failed != snap.Failed {
		return fmt.Errorf("sim: %s allocation marks banks %v failed, fault plan says %v",
			s.policy.Name(), alloc.Failed, snap.Failed)
	}
	if err := alloc.Validate(); err != nil {
		return fmt.Errorf("sim: %s produced invalid allocation: %w", s.policy.Name(), err)
	}
	s.Install(alloc, now)
	for b := range s.banks {
		owners := s.ownerBuf[:]
		copy(owners, alloc.WayOwners[b][:])
		if err := s.banks[b].SetWayOwners(owners); err != nil {
			return err
		}
	}
	// Placement rings (bank id repeated once per owned way, so Parallel
	// round-robin allocation fills banks proportionally to the core's share
	// in each) and the unique bank lists the per-access probe loops walk.
	for c := 0; c < nuca.NumCores; c++ {
		ring := s.coreBanks[c][:0]
		list := s.bankList[c][:0]
		for b := 0; b < nuca.NumBanks; b++ {
			n := alloc.WaysIn(c, b)
			if n == 0 {
				continue
			}
			list = append(list, b)
			for k := 0; k < n; k++ {
				ring = append(ring, b)
			}
		}
		s.coreBanks[c] = ring
		s.bankList[c] = list
	}
	// Latency faults apply until the next boundary recomputes them.
	s.bankExtra = snap.BankExtra
	s.dram.SetExtraLatency(snap.DRAMExtra)
	if snap.Failed != s.prevFailed || s.survBanks == nil {
		s.survBanks = s.survBanks[:0]
		for b := 0; b < nuca.NumBanks; b++ {
			if !snap.Failed.Has(b) {
				s.survBanks = append(s.survBanks, b)
			}
		}
	}
	s.prevFailed = snap.Failed
	for c := range s.profs {
		s.profs[c].Decay()
	}
	for c := range s.epochMissCycles {
		s.epochMissCycles[c], s.epochMisses[c] = 0, 0
	}
	return nil
}

// hashBank statically maps a block address to one of n banks, mixing the
// bits so sequential sweeps spread evenly.
func hashBank(addr trace.Addr, n int) int {
	blk := uint64(addr) >> trace.BlockBits
	blk ^= blk >> 17
	blk *= 0x9e3779b97f4a7c15
	blk ^= blk >> 29
	return int(blk % uint64(n))
}

// step advances core c by one memory access. Returns the core's new local
// time.
func (s *System) step(c int) int64 {
	ev := s.streams[c].Next()
	cpuCore := s.cores[c]
	issueAt := cpuCore.BeginAccess(ev.Gap)
	addr := ev.Access.Addr
	write := ev.Access.Write

	// ---- L1 ----
	l1 := s.l1s[c]
	if l1.Probe(addr) {
		s.l1Hits[c]++
		res := l1.Access(addr, c, write)
		if !res.Hit {
			panic("sim: L1 probe/access disagree")
		}
		if write {
			// Shared copies require an upgrade; sole copies silently E->M.
			if s.dir.StateOf(addr, c) == coherence.Shared {
				resp := s.dir.OnUpgrade(c, addr)
				s.applyInvalidations(addr, resp.Invalidated)
				if resp.Invalidations > 0 {
					cpuCore.RecordFill(issueAt + int64(resp.Invalidations)*s.cfg.InvalidationCycles)
				}
			} else {
				s.dir.OnWriteHitOwner(c, addr)
			}
		}
		return cpuCore.Now()
	}

	// ---- L1 miss: allocate, handle the victim, go to L2 ----
	s.l1Misses[c]++
	res := l1.Access(addr, c, write)
	if res.VictimValid {
		if wb := s.dir.OnL1Evict(c, res.VictimAddr); wb || res.VictimDirty {
			s.writebackToL2(c, res.VictimAddr, issueAt)
		}
	}
	var resp coherence.Response
	if write {
		resp = s.dir.OnWriteMiss(c, addr)
	} else {
		resp = s.dir.OnReadMiss(c, addr)
	}
	s.applyInvalidations(addr, resp.Invalidated)

	// The profilers watch the L2 access stream (Section III.A).
	s.profs[c].Access(addr)

	// Invalidations serialise on the critical path; a cache-to-cache
	// transfer still traverses the same network/bank path in this model
	// (the peer's L1 sits next to its router), so FromCache responses are
	// charged like an L2-resident hit.
	extra := int64(resp.Invalidations) * s.cfg.InvalidationCycles
	done := s.l2Access(c, addr, write, issueAt+extra)
	cpuCore.RecordFill(done)
	return cpuCore.Now()
}

// applyInvalidations physically clears addr from the L1s of exactly the
// peers the directory reported invalidated (after upgrade/write-miss
// processing the directory holds only the writer). L1 residency is a subset
// of the directory listing — fills always register, evictions and
// back-invalidations always unlist — so touching only the listed peers is
// behaviour-identical to scanning every core, and the common case (read
// misses, private data: an empty mask) touches nothing at all.
func (s *System) applyInvalidations(addr trace.Addr, peers cache.OwnerMask) {
	for m := uint(peers); m != 0; m &= m - 1 {
		s.l1s[bits.TrailingZeros(m)].Invalidate(addr)
	}
}

// writebackToL2 pushes a dirty L1 victim down: if the block is resident in
// one of the core's partition banks it is refreshed dirty there; otherwise
// the line goes to memory.
func (s *System) writebackToL2(c int, addr trace.Addr, now int64) {
	for _, b := range s.bankList[c] {
		if s.banks[b].Probe(addr) {
			s.banks[b].Insert(addr, c, true)
			return
		}
	}
	s.dram.Writeback(uint64(addr), now)
}

// l2Access performs the NUCA L2 access for core c and returns the cycle the
// fill data reaches the core. The partition is aggregated with the paper's
// Parallel scheme: the partial-tag directory identifies the owning bank, so
// only the bank that can hold the block is visited.
func (s *System) l2Access(c int, addr trace.Addr, write bool, issueAt int64) int64 {
	ring := s.coreBanks[c]
	if len(ring) == 0 {
		panic(fmt.Sprintf("sim: core %d has no banks", c))
	}
	var target int
	var hit bool
	if s.alloc.Hashed {
		// Shared baseline: static address hash across all banks; the line
		// has exactly one home set. Under bank failures the hash spans only
		// the surviving banks.
		if s.alloc.Failed == 0 {
			target = hashBank(addr, nuca.NumBanks)
		} else {
			target = s.survBanks[hashBank(addr, len(s.survBanks))]
		}
		hit = s.banks[target].ProbeFor(addr, c)
	} else {
		// Parallel aggregation within the partition: the partial-tag
		// directory identifies the owning bank; misses allocate
		// round-robin proportionally to the core's per-bank share.
		target = -1
		for _, b := range s.bankList[c] {
			if s.banks[b].ProbeFor(addr, c) {
				target = b
				break
			}
		}
		hit = target >= 0
		if !hit {
			target = ring[s.rr[c]%len(ring)]
			s.rr[c]++
		}
	}

	// Request path.
	reqArrive := s.net.Transfer(c, nuca.RouterOf(target), issueAt, s.cfg.ReqFlits) + nuca.DropLatency(target)
	bankStart := reqArrive
	if s.bankFree[target] > bankStart {
		bankStart = s.bankFree[target]
	}
	s.bankFree[target] = bankStart + s.cfg.BankBusyCycles
	dataReady := bankStart + nuca.MinLatency + s.bankExtra[target]

	res := s.banks[target].Access(addr, c, write)
	if res.Hit != hit {
		panic("sim: L2 probe/access disagree")
	}
	if res.VictimValid {
		// Inclusive hierarchy: back-invalidate L1 copies of the victim.
		invalidated, wb := s.dir.OnL2EvictAppend(res.VictimAddr, s.invalBuf[:0])
		s.invalBuf = invalidated
		for _, p := range invalidated {
			s.l1s[p].Invalidate(res.VictimAddr)
		}
		if res.VictimDirty || wb {
			s.dram.Writeback(uint64(res.VictimAddr), dataReady)
		}
	}

	if hit {
		s.l2Hits[c]++
		start := dataReady + nuca.DropLatency(target)
		return s.net.Transfer(nuca.RouterOf(target), c, start, s.cfg.DataFlits)
	}
	s.l2Misses[c]++
	memDone := s.dram.Request(uint64(addr), dataReady)
	start := memDone + nuca.DropLatency(target)
	done := s.net.Transfer(nuca.RouterOf(target), c, start, s.cfg.DataFlits)
	s.epochMissCycles[c] += done - issueAt
	s.epochMisses[c]++
	s.quarterMisses[c]++
	if s.missLat != nil {
		s.missLat.Observe(float64(done - issueAt))
	}
	return done
}

// Run advances the system until every core has retired at least
// instructions. Cores are interleaved in local-clock order. Epoch
// boundaries trigger repartitioning.
func (s *System) Run(instructions uint64) error {
	return s.RunContext(context.Background(), instructions)
}

// RunContext is Run with cooperative cancellation: the step loop polls ctx
// every few thousand steps and returns the context's error once it is done.
// The polling never alters the step order, so a run that is not cancelled
// is bit-identical to Run.
func (s *System) RunContext(ctx context.Context, instructions uint64) error {
	const pollEvery = 8192
	steps := 0
	for c := range s.finished {
		s.finished[c] = s.cores[c].Instructions() >= instructions
	}
	for {
		if steps++; steps >= pollEvery {
			steps = 0
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		c := -1
		var tmin int64
		for i, cpuCore := range s.cores {
			if s.finished[i] {
				continue
			}
			if c < 0 || cpuCore.Now() < tmin {
				c, tmin = i, cpuCore.Now()
			}
		}
		if c < 0 {
			break
		}
		now := s.step(c)
		if s.cores[c].Instructions() >= instructions {
			s.finished[c] = true
			s.cores[c].Drain()
		}
		switch {
		case now >= s.nextEpoch:
			if err := s.repartition(now); err != nil {
				return err
			}
			s.nextEpoch = now + s.cfg.EpochCycles
			s.nextCheck = now + s.cfg.EpochCycles/4
		case s.cfg.AdaptiveEpochs && now >= s.nextCheck:
			if s.phaseShifted() {
				if err := s.repartition(now); err != nil {
					return err
				}
				s.nextEpoch = now + s.cfg.EpochCycles
			}
			s.nextCheck = now + s.cfg.EpochCycles/4
		}
	}
	return nil
}

// phaseShifted compares the just-finished quarter window's per-core miss
// volumes against the previous quarter and reports a significant shift.
// It also rotates the windows.
func (s *System) phaseShifted() bool {
	shifted := false
	const minVolume = 64
	for c := 0; c < nuca.NumCores; c++ {
		cur, prev := s.quarterMisses[c], s.prevQuarter[c]
		if cur+prev >= minVolume && (cur > 2*prev || prev > 2*cur) {
			shifted = true
		}
		s.prevQuarter[c] = cur
		s.quarterMisses[c] = 0
	}
	return shifted
}

// ResetStats opens the measurement window after warm-up, keeping all
// cache, profiler and timing state. Every shared-resource counter resets
// with it — banks, DRAM channels and the MOESI directory included — so
// DRAMStats/DirectoryStats report the measurement window only, consistent
// with Result. The observation layer realigns with the window (see
// Accounting.ResetStats).
func (s *System) ResetStats() {
	for b := range s.banks {
		s.banks[b].ResetStats()
	}
	s.net.ResetStats()
	s.dram.ResetStats()
	s.dir.ResetStats()
	if s.missLat != nil {
		s.missLat.Reset()
	}
	s.Accounting.ResetStats()
}
