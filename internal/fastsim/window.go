package fastsim

import (
	"math"
	"slices"
	"sync"

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
// A Scope fixes every core's stream from the run seed at construction:
// its generator and its length n. Events are drawn lazily, a block at a
// time, as replays first read them, and kept for later replays, whichever
// System of the scope runs them; a replay reads only a few percent of n.
// Because a block's draws never depend on when it is drawn, the stream —
// and so window CPI — is a smooth deterministic function of (allocation,
// active set, miss ratios): byte-stable across runs, worker counts and
// scope sharing by construction.
const (
	// windowCycles is the simulated span of one window; windowWarm is the
	// prefix excluded from measurement (cold timelines, empty MSHRs).
	windowCycles = 3 * 16384
	windowWarm   = 8192
	// missStride is the stratification block: every consecutive block of
	// this many L2 accesses realises its expected miss count exactly.
	missStride = 64
)

// coreStream is one core's event stream, drawn on demand in blocks of
// missStride events. The Systems of a scope read it concurrently, as
// trace.Tape's readers read a tape: drawing appends to the prefix under mu,
// a drawn prefix never changes afterwards, and each replay reads the
// streamView it last took without the lock.
type coreStream struct {
	n        int // full length; a replay wraps to event 0 after event n-1
	gapP, h1 float64

	mu       sync.Mutex
	rng      *stats.RNG
	carry    float64 // L1-split stratification carry into the next block
	drawn    streamView
	blockBuf [missStride]float64
}

// l2Draws are the uniforms one L2 event's replay reads.
type l2Draws struct {
	u2 float64 // miss-selection rank within the event's stratum block
	uB float64 // bank placement draw
	uW float64 // dirty-victim writeback draw
	uC float64 // DRAM channel spread draw
}

// streamView is a drawn prefix of a stream.
type streamView struct {
	// events holds one word per event: the non-memory instructions before
	// the access (at most 2^20, stats.Geometric's cap) shifted left by one,
	// with bit 0 set when the access misses the L1 (stratified on h1).
	events []int32
	// draws holds the L2 events' uniforms, in stream order: draws[j] is the
	// j-th L2 event's. An L1 hit's draws are drawn and dropped.
	draws []l2Draws
	// order lists, per complete missStride-block of draws, the block's
	// offsets by ascending (u2, stream order): order[b+r] is the offset of
	// the block's r-th smallest u2.
	order []uint8
}

// buildStreams fixes every core's stream from the run seed: one generator
// split per core, in core order, and the length. Length is sized so a
// window never wraps in practice (wrapping is still handled,
// deterministically, as a safety net). Nothing is drawn yet.
func buildStreams(seed uint64, profs []*profile) []*coreStream {
	base := stats.NewRNG(seed^0x7a57f00dcafe, seed^0x1b873593517cc1b5)
	streams := make([]*coreStream, len(profs))
	for c, p := range profs {
		// Worst-case event consumption: one event per (gap+1)/width
		// cycles; add generous slack for latency-bound stretches where
		// events are consumed faster than retirement would suggest.
		gapMean := 1/p.gapP - 1
		streams[c] = &coreStream{
			n:    int(float64(windowCycles)*4/(gapMean+1)*2) + 512,
			rng:  base.Split(uint64(c)),
			gapP: p.gapP,
			h1:   p.h1,
		}
	}
	return streams
}

// view returns the drawn prefix, first drawing until it holds at least
// events events and l2 L2 events, or the whole stream.
func (st *coreStream) view(events, l2 int) streamView {
	st.mu.Lock()
	defer st.mu.Unlock()
	for (len(st.drawn.events) < events || len(st.drawn.draws) < l2) && len(st.drawn.events) < st.n {
		st.drawBlock()
	}
	return st.drawn
}

// drawBlock draws the stream's next missStride events (fewer at n). The
// L1 hit/miss split is stratified: per block the L2 count is exact
// (carry-accumulated), with the positions chosen by rank among the
// block's u1 uniforms. Draw order is fixed: the block's u1 draws, then
// per event its gap, u2, uB, uW and uC, which an L1 hit draws and drops.
// st.mu is held.
func (st *coreStream) drawBlock() {
	d := &st.drawn
	blk := len(d.events)
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
	for _, u := range u1 {
		ev := int32(st.rng.Geometric(st.gapP)) << 1
		var l2 l2Draws
		l2.u2 = st.rng.Float64()
		l2.uB = st.rng.Float64()
		l2.uW = st.rng.Float64()
		l2.uC = st.rng.Float64()
		if u <= thresh {
			ev |= 1
			d.draws = append(d.draws, l2)
		}
		d.events = append(d.events, ev)
	}
	done := len(d.events) == st.n
	for len(d.draws)-len(d.order) >= missStride || done && len(d.order) < len(d.draws) {
		st.orderBlock()
	}
}

// orderBlock appends the u2 order of the next block of draws, which is
// complete: missStride L2 events long, or the stream's last. Insertion
// keeps equal u2 in stream order. st.mu is held.
func (st *coreStream) orderBlock() {
	d := &st.drawn
	blk := len(d.order)
	u2 := st.blockBuf[:min(missStride, len(d.draws)-blk)]
	for i := range u2 {
		u2[i] = d.draws[blk+i].u2
		j := len(d.order)
		d.order = append(d.order, 0)
		for ; j > blk && u2[d.order[j-1]] > u2[i]; j-- {
			d.order[j] = d.order[j-1]
		}
		d.order[j] = uint8(i)
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
	v             streamView // the stream's prefix as this replay last saw it
	pos, l2n      int        // next event and next L2 event to read; both restart with the stream
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

// next reads the replay's next event and returns its gap. For an L2 event
// it also returns the event's draws and whether it misses; an L1 hit
// returns nil draws. After the stream's last event the replay reads event
// 0 again.
func (mc *missClassifier) next() (gap int, u *l2Draws, miss bool) {
	i := mc.pos
	if mc.pos++; mc.pos == mc.st.n {
		mc.pos = 0
	}
	if i == 0 {
		mc.l2n = 0
	}
	if i >= len(mc.v.events) {
		mc.v = mc.st.view(i+1, 0)
	}
	ev := mc.v.events[i]
	if ev&1 == 0 {
		return int(ev >> 1), nil, false
	}
	j := mc.l2n
	mc.l2n++
	return int(ev >> 1), &mc.v.draws[j], mc.missAt(j)
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
	blk := len(mc.flags)
	if len(mc.v.draws) < blk+mc.stride && len(mc.v.events) < mc.st.n {
		mc.v = mc.st.view(0, blk+mc.stride)
	}
	v := mc.v
	size := min(mc.stride, len(v.draws)-blk)
	want := float64(size)*mc.m2 + mc.carry
	k := int(want)
	mc.carry = want - float64(k)
	mc.flags = slices.Grow(mc.flags, size)[:blk+size]
	flags := mc.flags[blk:]
	clear(flags)
	draws := v.draws[blk : blk+size]
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
		thresh := draws[v.order[blk+k-1]].u2
		marked := 0
		for i := 0; i < size && marked < k; i++ {
			if draws[i].u2 <= thresh {
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
				startAt += int(draws[base].u2 * float64(slack+1))
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
// the same shared-resource timelines. Each core's miss flags go into
// flags' storage, which it returns there for the next replay.
func (sc *Scope) replayWindow(p windowParams, flags *[nuca.NumCores][]bool) windowResult {
	cfg := &sc.cfg
	var res windowResult
	net := interconnect.MustNew(nuca.NumCores,
		(nuca.MaxLatency-nuca.MinLatency)/float64(2*7), cfg.FlitCycles)
	channels := cfg.MemChannels
	if channels == 0 {
		channels = 1
	}
	dram, err := mem.NewMemory(channels, cfg.Mem)
	if err != nil {
		// cfg was validated at New; this cannot happen.
		panic(err)
	}
	var bankFree [nuca.NumBanks]int64
	var rr [8]int
	var warmInstr [8]uint64
	var warmNow [8]int64
	var warmed [8]bool
	var missN, missSum [8]int64
	var cores [8]*cpu.Core
	var streams [8]missClassifier
	// clock[c] is core c's cycle while it runs the window, and MaxInt64
	// once it has run it (or when it is inactive), so the scheduler below
	// reads no core.
	var clock [8]int64
	for c := 0; c < nuca.NumCores; c++ {
		clock[c] = math.MaxInt64
		if !p.active[c] {
			continue
		}
		cores[c] = cpu.MustNew(c, cfg.CPU)
		clock[c] = cores[c].Now()
		streams[c] = newMissClassifier(sc.streams[c], p.m2[c], p.runLen[c], flags[c])
	}

	for {
		c, now := 0, clock[0]
		for i := 1; i < nuca.NumCores; i++ {
			if clock[i] < now {
				c, now = i, clock[i]
			}
		}
		if now == math.MaxInt64 {
			break
		}
		core := cores[c]
		if !warmed[c] && now >= windowWarm {
			warmed[c] = true
			warmInstr[c] = core.Instructions()
			warmNow[c] = now
		}
		gap, u, isMiss := streams[c].next()
		issueAt := core.BeginAccess(gap)
		if u != nil {
			// Bank choice mirrors l2Access: hashed mode spreads every access
			// uniformly; partitioned mode places misses round-robin over the
			// owned-way ring and finds hits where insertion put them (the
			// ring distribution).
			var bank int
			if p.hashed {
				bank = int(u.uB * nuca.NumBanks)
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
					bi := int(u.uB * float64(len(ring)))
					if bi >= len(ring) {
						bi = len(ring) - 1
					}
					bank = ring[bi]
				}
			}
			router := nuca.RouterOf(bank)
			drop := nuca.DropLatency(bank)
			reqArrive := net.Transfer(c, router, issueAt, cfg.ReqFlits) + drop
			bankStart := reqArrive
			if bankFree[bank] > bankStart {
				bankStart = bankFree[bank]
			}
			bankFree[bank] = bankStart + cfg.BankBusyCycles
			dataReady := bankStart + nuca.MinLatency
			var done int64
			if isMiss {
				addr := uint64(u.uC*float64(1<<30)) << 6
				if u.uW < p.wbFrac[c] {
					dram.Writeback(addr^0x5bd1e995, dataReady)
				}
				memDone := dram.Request(addr, dataReady)
				done = net.Transfer(router, c, memDone+drop, cfg.DataFlits)
				if warmed[c] {
					missN[c]++
					missSum[c] += done - issueAt
				}
			} else {
				done = net.Transfer(router, c, dataReady+drop, cfg.DataFlits)
			}
			core.RecordFill(done)
		}
		if clock[c] = core.Now(); clock[c] >= windowCycles {
			clock[c] = math.MaxInt64
		}
	}

	for c := 0; c < nuca.NumCores; c++ {
		if !p.active[c] {
			continue
		}
		flags[c] = streams[c].flags // keep the storage for the next replay
		// A core leaves the window right after the event that carried it
		// past windowCycles, so its final state is the measured end.
		di := float64(cores[c].Instructions()) - float64(warmInstr[c])
		dc := float64(cores[c].Now()) - float64(warmNow[c])
		if !warmed[c] || di <= 0 {
			// Degenerate window (should not happen: gaps always advance
			// instructions); fall back to the whole span.
			di = float64(cores[c].Instructions())
			dc = float64(cores[c].Now())
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
