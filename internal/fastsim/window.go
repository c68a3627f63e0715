package fastsim

import (
	"math"
	"sort"

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
// banks, MSA profiler, directory, trace generators) with pre-drawn
// synthetic streams classified against the model's probabilities. The
// generator emits i.i.d. category draws, so a Bernoulli hit/miss stream
// with the right ratio is statistically faithful; stratified selection
// (exact counts per block of consecutive L2 events) removes most sampling
// noise while preserving the burstiness that drives MSHR/ROB overlap.
//
// All streams are drawn once per System from the run seed, so window CPI
// is a smooth deterministic function of (allocation, active set, miss
// ratios): byte-stable across runs and worker counts by construction.
const (
	// windowCycles is the simulated span of one window; windowWarm is the
	// prefix excluded from measurement (cold timelines, empty MSHRs).
	windowCycles = 3 * 16384
	windowWarm   = 8192
	// missStride is the stratification block: every consecutive block of
	// this many L2 accesses realises its expected miss count exactly.
	missStride = 64
)

// microEvent is one pre-drawn memory access of the synthetic stream.
type microEvent struct {
	gap  int32   // non-memory instructions before this access
	isL2 bool    // true when the access misses the L1 (stratified on h1)
	u2   float64 // miss-selection rank within the event's stratum block
	uB   float64 // bank placement draw
	uW   float64 // dirty-victim writeback draw
	uC   float64 // DRAM channel spread draw
}

// coreStream is one core's pre-drawn event stream plus derived indexing.
type coreStream struct {
	events []microEvent
	l2Idx  []int32 // indices of L2 events, in stream order
}

// buildStreams draws every core's window stream from the run seed. Stream
// length is sized so a window never wraps in practice (wrapping is still
// handled, deterministically, as a safety net).
func buildStreams(seed uint64, profs []*profile) []coreStream {
	base := stats.NewRNG(seed^0x7a57f00dcafe, seed^0x1b873593517cc1b5)
	streams := make([]coreStream, len(profs))
	for c, p := range profs {
		rng := base.Split(uint64(c))
		// Worst-case event consumption: one event per (gap+1)/width
		// cycles; add generous slack for latency-bound stretches where
		// events are consumed faster than retirement would suggest.
		gapMean := 1/p.gapP - 1
		n := int(float64(windowCycles)*4/(gapMean+1)*2) + 512
		st := coreStream{events: make([]microEvent, n)}
		// Stratify the L1 hit/miss split: per block of missStride events
		// the L2 count is exact (carry-accumulated), with the positions
		// chosen by rank among the block's uniforms.
		carry := 0.0
		u1 := make([]float64, missStride)
		for blk := 0; blk < n; blk += missStride {
			end := blk + missStride
			if end > n {
				end = blk + (n - blk)
			}
			size := end - blk
			want := float64(size)*(1-p.h1) + carry
			k := int(want)
			carry = want - float64(k)
			for i := 0; i < size; i++ {
				u1[i] = rng.Float64()
			}
			thresh := math.Inf(1)
			if k < size {
				sorted := append([]float64(nil), u1[:size]...)
				sort.Float64s(sorted)
				if k > 0 {
					thresh = sorted[k-1]
				} else {
					thresh = math.Inf(-1)
				}
			}
			for i := 0; i < size; i++ {
				ev := &st.events[blk+i]
				ev.gap = int32(rng.Geometric(p.gapP))
				ev.isL2 = u1[i] <= thresh
				ev.u2 = rng.Float64()
				ev.uB = rng.Float64()
				ev.uW = rng.Float64()
				ev.uC = rng.Float64()
			}
		}
		for i, ev := range st.events {
			if ev.isL2 {
				st.l2Idx = append(st.l2Idx, int32(i))
			}
		}
		streams[c] = st
	}
	return streams
}

// classifyMisses marks which L2 events of stream st miss, realising ratio
// m2 exactly per stratification block of consecutive L2 accesses. Miss
// *placement* within a block follows the workload's profiled clustering:
// when the profiled mean run length runTarget is close to the i.i.d.
// expectation 1/(1-m2), misses are chosen by rank among the block's
// pre-drawn uniforms (statistically faithful placement — the geometric
// run-length tail that lets the ROB overlap dense misses survives). When
// the workload misses in genuine bursts (loop-sweep wraps evict
// consecutively, so runs far exceed the i.i.d. length at low miss
// ratios), misses are packed into consecutive runs of the profiled mean
// length instead; back-to-back misses share one ROB stall, which is the
// dominant CPI effect at light miss ratios. The returned slice is
// indexed by event position.
func classifyMisses(st *coreStream, m2, runTarget float64, flags []bool) []bool {
	if cap(flags) < len(st.events) {
		flags = make([]bool, len(st.events))
	}
	flags = flags[:len(st.events)]
	for i := range flags {
		flags[i] = false
	}
	iid := math.Inf(1)
	if m2 < 1 {
		iid = 1 / (1 - m2)
	}
	clustered := m2 > 0 && runTarget > iid*1.15
	stride := missStride
	if clustered {
		// Size blocks so each holds roughly one run (light workloads), up
		// to a cap that keeps stratification meaningful.
		if b := int(runTarget / m2); b > stride {
			stride = b
		}
		if stride > 2048 {
			stride = 2048
		}
	}
	carry := 0.0
	for blk := 0; blk < len(st.l2Idx); blk += stride {
		end := blk + stride
		if end > len(st.l2Idx) {
			end = len(st.l2Idx)
		}
		size := end - blk
		want := float64(size)*m2 + carry
		k := int(want)
		carry = want - float64(k)
		if k <= 0 {
			continue
		}
		if k >= size {
			for _, idx := range st.l2Idx[blk:end] {
				flags[idx] = true
			}
			continue
		}
		if !clustered {
			// Rank placement: the k smallest u2 of the block miss.
			buf := make([]float64, size)
			for i := 0; i < size; i++ {
				buf[i] = st.events[st.l2Idx[blk+i]].u2
			}
			tmp := append([]float64(nil), buf...)
			sort.Float64s(tmp)
			thresh := tmp[k-1]
			marked := 0
			for i := 0; i < size && marked < k; i++ {
				idx := st.l2Idx[blk+i]
				if st.events[idx].u2 <= thresh {
					flags[idx] = true
					marked++
				}
			}
			continue
		}
		// Burst placement: k misses in runs of mean runTarget, spread
		// evenly with a u2-jittered start per run.
		nRuns := int(float64(k)/runTarget + 0.5)
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
				startAt += int(st.events[st.l2Idx[blk+base]].u2 * float64(slack+1))
				if startAt > base+slack {
					startAt = base + slack
				}
			}
			for i := startAt; i < startAt+l && i < size; i++ {
				flags[st.l2Idx[blk+i]] = true
			}
			rem -= l
		}
	}
	return flags
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
	var idx, rr [8]int
	var warmInstr, measInstr [8]uint64
	var warmNow, measNow [8]int64
	var warmed [8]bool
	var missN, missSum [8]int64
	miss := s.missFlags
	for c := 0; c < nuca.NumCores; c++ {
		if !p.active[c] {
			continue
		}
		cores[c] = cpu.MustNew(c, s.cfg.CPU)
		miss[c] = classifyMisses(&s.streams[c], p.m2[c], p.runLen[c], miss[c])
	}
	s.missFlags = miss

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
		st := &s.streams[c]
		ev := st.events[idx[c]%len(st.events)]
		isMiss := miss[c][idx[c]%len(st.events)]
		idx[c]++
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
