package fastsim

import (
	"math"
	"slices"

	"bankaware/internal/cpu"
	"bankaware/internal/interconnect"
	"bankaware/internal/mem"
	"bankaware/internal/nuca"
	"bankaware/internal/stats"
)

// The micro-replay window turns per-core miss ratios into CPI. It is a
// miniature timing simulation that reuses the detailed engine's *timing*
// components — the real cpu.Core (ROB/MSHR overlap), the real
// interconnect.Network (including its future-reservation link queueing,
// which dominates hashed-mode latency), the real mem.Memory channels and
// the per-bank busy timelines — but replaces the *state* machinery (cache
// banks, MSA profiler, directory, trace generators) with synthetic
// streams classified against the model's probabilities. The generator
// emits i.i.d. category draws, so a Bernoulli hit/miss stream with the
// right ratio is statistically faithful; stratified selection (exact
// counts per block of consecutive L2 events) removes most sampling noise
// while preserving the burstiness that drives MSHR/ROB overlap.
//
// Each System fixes every core's stream from the run seed at
// construction: its generator and its length n. Events are drawn lazily,
// a block at a time, as replays first read them, and kept for later
// replays; a replay reads only a few percent of n. Because a block's
// draws never depend on when it is drawn, the stream — and so window
// CPI — is a smooth deterministic function of (allocation, active set,
// miss ratios): byte-stable across runs and worker counts by
// construction.
const (
	// windowCycles is the simulated span of one window; windowWarm is the
	// prefix excluded from measurement (cold timelines, empty MSHRs).
	windowCycles = 3 * 16384
	windowWarm   = 8192
	// missStride is the stratification block: every consecutive block of
	// this many L2 accesses realises its expected miss count exactly.
	missStride = 64
)

// microEvent is one memory access of the synthetic stream.
type microEvent struct {
	gap  int32   // non-memory instructions before this access
	isL2 bool    // true when the access misses the L1 (stratified on h1)
	u2   float64 // miss-selection rank within the event's stratum block
	uB   float64 // bank placement draw
	uW   float64 // dirty-victim writeback draw
	uC   float64 // DRAM channel spread draw
}

// coreStream is one core's event stream, drawn on demand in blocks of
// missStride events, plus derived indexing over the drawn prefix.
type coreStream struct {
	n        int // full length; a replay reads event idx % n
	rng      *stats.RNG
	gapP, h1 float64
	carry    float64 // L1-split stratification carry into the next block
	events   []microEvent
	l2Idx    []int32 // indices of L2 events, in stream order
	// order lists, per complete missStride-block of l2Idx, the block's
	// offsets by ascending (u2, stream order): order[b+r] is the offset
	// of the block's r-th smallest u2.
	order    []uint8
	blockBuf [missStride]float64
}

// buildStreams fixes every core's stream from the run seed: one generator
// split per core, in core order, and the length. Length is sized so a
// window never wraps in practice (wrapping is still handled,
// deterministically, as a safety net). Nothing is drawn yet.
func buildStreams(seed uint64, profs []*profile) []coreStream {
	base := stats.NewRNG(seed^0x7a57f00dcafe, seed^0x1b873593517cc1b5)
	streams := make([]coreStream, len(profs))
	for c, p := range profs {
		// Worst-case event consumption: one event per (gap+1)/width
		// cycles; add generous slack for latency-bound stretches where
		// events are consumed faster than retirement would suggest.
		gapMean := 1/p.gapP - 1
		streams[c] = coreStream{
			n:    int(float64(windowCycles)*4/(gapMean+1)*2) + 512,
			rng:  base.Split(uint64(c)),
			gapP: p.gapP,
			h1:   p.h1,
		}
	}
	return streams
}

// at returns event i (i < n), drawing the blocks up to it first.
func (st *coreStream) at(i int) microEvent {
	for i >= len(st.events) {
		st.drawBlock()
	}
	return st.events[i]
}

// drawBlock draws the stream's next missStride events (fewer at n). The
// L1 hit/miss split is stratified: per block the L2 count is exact
// (carry-accumulated), with the positions chosen by rank among the
// block's u1 uniforms. Draw order is fixed: the block's u1 draws, then
// per event its gap, u2, uB, uW and uC.
func (st *coreStream) drawBlock() {
	blk := len(st.events)
	size := min(missStride, st.n-blk)
	want := float64(size)*(1-st.h1) + st.carry
	k := int(want)
	st.carry = want - float64(k)
	u1 := st.blockBuf[:size]
	for i := range u1 {
		u1[i] = st.rng.Float64()
	}
	thresh := math.Inf(1)
	if k < size {
		thresh = math.Inf(-1)
		if k > 0 {
			// The k-th smallest is one value however it is found, so
			// selection gives the threshold a sort would.
			var sel [missStride]float64
			thresh = kthSmallest(append(sel[:0], u1...), k)
		}
	}
	for i := range u1 {
		ev := microEvent{isL2: u1[i] <= thresh}
		ev.gap = int32(st.rng.Geometric(st.gapP))
		ev.u2 = st.rng.Float64()
		ev.uB = st.rng.Float64()
		ev.uW = st.rng.Float64()
		ev.uC = st.rng.Float64()
		if ev.isL2 {
			st.l2Idx = append(st.l2Idx, int32(blk+i))
		}
		st.events = append(st.events, ev)
	}
	done := len(st.events) == st.n
	for len(st.l2Idx)-len(st.order) >= missStride || done && len(st.order) < len(st.l2Idx) {
		st.orderBlock()
	}
}

// orderBlock appends the u2 order of the next block of l2Idx, which is
// complete: missStride L2 events long, or the stream's last. Insertion
// keeps equal u2 in stream order.
func (st *coreStream) orderBlock() {
	blk := len(st.order)
	u2 := st.blockBuf[:min(missStride, len(st.l2Idx)-blk)]
	for i := range u2 {
		u2[i] = st.events[st.l2Idx[blk+i]].u2
		j := len(st.order)
		st.order = append(st.order, 0)
		for ; j > blk && u2[st.order[j-1]] > u2[i]; j-- {
			st.order[j] = st.order[j-1]
		}
		st.order[j] = uint8(i)
	}
}

// kthSmallest returns the k-th smallest (1-based) value of buf, reordering
// buf in place (Hoare's selection).
func kthSmallest(buf []float64, k int) float64 {
	k--
	lo, hi := 0, len(buf)-1
	for lo < hi {
		pivot := buf[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for buf[i] < pivot {
				i++
			}
			for buf[j] > pivot {
				j--
			}
			if i <= j {
				buf[i], buf[j] = buf[j], buf[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return buf[k]
		}
	}
	return buf[k]
}

// missClassifier reads one core's stream for one replay and marks which
// of its L2 events miss, realising ratio m2 exactly per stratification
// block of consecutive L2 accesses. It classifies a block only when the
// replay first reads one of its events, carrying the stratification
// remainder from block to block.
//
// Miss *placement* within a block follows the workload's profiled
// clustering: when the profiled mean run length runTarget is close to the
// i.i.d. expectation 1/(1-m2), misses are chosen by rank among the
// block's u2 draws (statistically faithful placement — the geometric
// run-length tail that lets the ROB overlap dense misses survives). When
// the workload misses in genuine bursts (loop-sweep wraps evict
// consecutively, so runs far exceed the i.i.d. length at low miss
// ratios), misses are packed into consecutive runs of the profiled mean
// length instead; back-to-back misses share one ROB stall, which is the
// dominant CPI effect at light miss ratios.
type missClassifier struct {
	st            *coreStream
	idx, l2n      int // events and L2 events read, L2 restarting with the stream
	m2, runTarget float64
	clustered     bool
	stride        int
	carry         float64
	flags         []bool // by L2 position; len is the classified prefix
}

// newMissClassifier starts classifying st at miss ratio m2, reusing buf's
// storage for the flags.
func newMissClassifier(st *coreStream, m2, runTarget float64, buf []bool) missClassifier {
	iid := math.Inf(1)
	if m2 < 1 {
		iid = 1 / (1 - m2)
	}
	mc := missClassifier{st: st, m2: m2, runTarget: runTarget, stride: missStride, flags: buf[:0]}
	mc.clustered = m2 > 0 && runTarget > iid*1.15
	if mc.clustered {
		// Size blocks so each holds roughly one run (light workloads), up
		// to a cap that keeps stratification meaningful.
		if b := int(runTarget / m2); b > mc.stride {
			mc.stride = b
		}
		if mc.stride > 2048 {
			mc.stride = 2048
		}
	}
	return mc
}

// next returns the replay's next event, stream position idx % n, and
// whether it misses (always false for an L1 hit).
func (mc *missClassifier) next() (microEvent, bool) {
	i := mc.idx % mc.st.n
	mc.idx++
	if i == 0 {
		mc.l2n = 0
	}
	ev := mc.st.at(i)
	if !ev.isL2 {
		return ev, false
	}
	mc.l2n++
	return ev, mc.missAt(mc.l2n - 1)
}

// missAt reports whether the stream's j-th L2 event misses.
func (mc *missClassifier) missAt(j int) bool {
	for j >= len(mc.flags) {
		mc.classifyBlock()
	}
	return mc.flags[j]
}

// classifyBlock classifies the next block of L2 events, drawing the
// stream until the block is complete: stride L2 events long, or the
// stream's last.
func (mc *missClassifier) classifyBlock() {
	st := mc.st
	blk := len(mc.flags)
	for len(st.l2Idx) < blk+mc.stride && len(st.events) < st.n {
		st.drawBlock()
	}
	size := min(mc.stride, len(st.l2Idx)-blk)
	want := float64(size)*mc.m2 + mc.carry
	k := int(want)
	mc.carry = want - float64(k)
	mc.flags = slices.Grow(mc.flags, size)[:blk+size]
	flags := mc.flags[blk:]
	clear(flags)
	u2 := func(i int) float64 { return st.events[st.l2Idx[blk+i]].u2 }
	switch {
	case k <= 0:
	case k >= size:
		for i := range flags {
			flags[i] = true
		}
	case !mc.clustered:
		// Rank placement: the k smallest u2 of the block miss — all
		// below the k-th smallest, then the first in stream order equal
		// to it.
		thresh := u2(int(st.order[blk+k-1]))
		marked := 0
		for i := 0; i < size && marked < k; i++ {
			if u2(i) <= thresh {
				flags[i] = true
				marked++
			}
		}
	default:
		// Burst placement: k misses in runs of mean runTarget, spread
		// evenly with a u2-jittered start per run.
		nRuns := int(float64(k)/mc.runTarget + 0.5)
		if nRuns < 1 {
			nRuns = 1
		}
		spacing := size / nRuns
		rem := k
		for r := 0; r < nRuns && rem > 0; r++ {
			l := (rem + (nRuns - r - 1)) / (nRuns - r)
			if l > rem {
				l = rem
			}
			base := r * spacing
			slack := spacing - l
			if r == nRuns-1 {
				slack = size - base - l
			}
			startAt := base
			if slack > 0 {
				startAt += int(u2(base) * float64(slack+1))
				if startAt > base+slack {
					startAt = base + slack
				}
			}
			for i := startAt; i < startAt+l && i < size; i++ {
				flags[i] = true
			}
			rem -= l
		}
	}
}

// windowParams is everything a replay needs beyond the streams.
type windowParams struct {
	active [8]bool
	m2     [8]float64
	hashed bool
	rings  [8][]int // bank id repeated per owned way (partitioned mode)
	wbFrac [8]float64
	runLen [8]float64 // profiled mean consecutive-miss run length at m2
}

// windowResult is what one replay measures.
type windowResult struct {
	cpi     [8]float64
	missLat [8]float64 // mean end-to-end L2 miss latency per core
}

// replayWindow runs one micro window and measures per-core steady-state
// CPI and miss latency. It mirrors sim.System's event loop: min-clock core
// selection (ties to the lowest id), the l2Access latency composition, and
// the same shared-resource timelines.
func (s *System) replayWindow(p windowParams) windowResult {
	var res windowResult
	cores := [8]*cpu.Core{}
	net := interconnect.MustNew(nuca.NumCores,
		(nuca.MaxLatency-nuca.MinLatency)/float64(2*7), s.cfg.FlitCycles)
	channels := s.cfg.MemChannels
	if channels == 0 {
		channels = 1
	}
	dram, err := mem.NewMemory(channels, s.cfg.Mem)
	if err != nil {
		// cfg was validated at New; this cannot happen.
		panic(err)
	}
	var bankFree [nuca.NumBanks]int64
	var rr [8]int
	var warmInstr, measInstr [8]uint64
	var warmNow, measNow [8]int64
	var warmed [8]bool
	var missN, missSum [8]int64
	var streams [8]missClassifier
	for c := 0; c < nuca.NumCores; c++ {
		if !p.active[c] {
			continue
		}
		cores[c] = cpu.MustNew(c, s.cfg.CPU)
		streams[c] = newMissClassifier(&s.streams[c], p.m2[c], p.runLen[c], s.missFlags[c])
	}

	for {
		c := -1
		var tmin int64
		for i := 0; i < nuca.NumCores; i++ {
			if cores[i] == nil || cores[i].Now() >= windowCycles {
				continue
			}
			if c < 0 || cores[i].Now() < tmin {
				c, tmin = i, cores[i].Now()
			}
		}
		if c < 0 {
			break
		}
		core := cores[c]
		if !warmed[c] && core.Now() >= windowWarm {
			warmed[c] = true
			warmInstr[c] = core.Instructions()
			warmNow[c] = core.Now()
		}
		ev, isMiss := streams[c].next()
		issueAt := core.BeginAccess(int(ev.gap))
		if !ev.isL2 {
			measInstr[c] = core.Instructions()
			measNow[c] = core.Now()
			continue
		}
		// Bank choice mirrors l2Access: hashed mode spreads every access
		// uniformly; partitioned mode places misses round-robin over the
		// owned-way ring and finds hits where insertion put them (the
		// ring distribution).
		var bank int
		if p.hashed {
			bank = int(ev.uB * nuca.NumBanks)
			if bank >= nuca.NumBanks {
				bank = nuca.NumBanks - 1
			}
		} else {
			ring := p.rings[c]
			if len(ring) == 0 {
				// No capacity: every access misses straight through one
				// notional bank (the local one) to DRAM.
				bank = c
				isMiss = true
			} else if isMiss {
				bank = ring[rr[c]%len(ring)]
				rr[c]++
			} else {
				bi := int(ev.uB * float64(len(ring)))
				if bi >= len(ring) {
					bi = len(ring) - 1
				}
				bank = ring[bi]
			}
		}
		router := nuca.RouterOf(bank)
		drop := nuca.DropLatency(bank)
		reqArrive := net.Transfer(c, router, issueAt, s.cfg.ReqFlits) + drop
		bankStart := reqArrive
		if bankFree[bank] > bankStart {
			bankStart = bankFree[bank]
		}
		bankFree[bank] = bankStart + s.cfg.BankBusyCycles
		dataReady := bankStart + nuca.MinLatency
		var done int64
		if isMiss {
			addr := uint64(ev.uC*float64(1<<30)) << 6
			if ev.uW < p.wbFrac[c] {
				dram.Writeback(addr^0x5bd1e995, dataReady)
			}
			memDone := dram.Request(addr, dataReady)
			done = net.Transfer(router, c, memDone+drop, s.cfg.DataFlits)
			if warmed[c] {
				missN[c]++
				missSum[c] += done - issueAt
			}
		} else {
			done = net.Transfer(router, c, dataReady+drop, s.cfg.DataFlits)
		}
		core.RecordFill(done)
		measInstr[c] = core.Instructions()
		measNow[c] = core.Now()
	}

	for c := 0; c < nuca.NumCores; c++ {
		if cores[c] == nil {
			continue
		}
		s.missFlags[c] = streams[c].flags // keep the storage for the next replay
		di := float64(measInstr[c]) - float64(warmInstr[c])
		dc := float64(measNow[c]) - float64(warmNow[c])
		if !warmed[c] || di <= 0 {
			// Degenerate window (should not happen: gaps always advance
			// instructions); fall back to the whole span.
			di = float64(measInstr[c])
			dc = float64(measNow[c])
			if di <= 0 {
				di = 1
			}
		}
		res.cpi[c] = dc / di
		if missN[c] > 0 {
			res.missLat[c] = float64(missSum[c]) / float64(missN[c])
		}
	}
	return res
}
