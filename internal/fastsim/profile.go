// Package fastsim is the interval-model fast-path execution engine: it
// reproduces the detailed simulator's experiment-level outputs (per-core
// miss counts, CPI, allocation dynamics, run reports) without per-event
// cache/network/DRAM simulation of the full instruction stream.
//
// The engine rests on three legs:
//
//  1. A one-time *workload profile* (this file): the real trace generator
//     and the real L1 bank run once per (spec, geometry) under a fixed
//     seed, measuring the exact per-set LRU depth distribution of the
//     L2-bound access stream — the same quantity the MSA profiler and the
//     L2 banks respond to — plus the stream's working-set growth curve.
//  2. A closed-form *capacity model* (model.go): expected miss ratios for
//     any way allocation. Because the generator's loop and cold regions
//     are contiguous, blocks spread over sets and round-robin bank rings
//     deterministically, so the partitioned model uses proportional
//     depth splits (sharp LRU knees survive); only cross-core interleaving
//     in the shared hashed baseline is random enough for Poisson smearing.
//  3. A *micro-replay window* (window.go): a short synthetic-traffic
//     replay through the real cpu.Core, interconnect.Network, mem.Memory
//     and bank timelines, which turns miss ratios into CPI with the same
//     queueing/overlap mechanics as the detailed engine.
//
// fastsim.System follows sim.System's run semantics (cumulative
// instruction targets, epoch repartitioning through the real policy
// objects) and embeds the same sim.Accounting for stats reset, metrics
// recording, results and reports, so experiments can swap one for the
// other behind the Fidelity option. All arithmetic is fixed-order float64
// with no wall-clock or map-iteration dependence, so reports are
// byte-stable for any worker count.
package fastsim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"bankaware/internal/cache"
	"bankaware/internal/stats"
	"bankaware/internal/trace"
)

const (
	// profileEvents is the trace length of one profiling pass. Long enough
	// that the depth histogram's sampling error is well below the accuracy
	// envelope; a cold profile costs ~140 ms on one core of a 2-vCPU
	// x86-64 VM (3.6-3.7 s for the 26 catalog workloads built one after
	// another), about 60% of it in the trace generator, and it is cached
	// per process.
	profileEvents = 1 << 18
	// profileWarmup is the prefix excluded from the histogram: the
	// measurement stacks are still filling there, so depths and first-touch
	// fractions are not yet stationary. L1 and stack state still advance.
	profileWarmup = profileEvents / 8
	// maxDepth caps the per-set recency lists. Any reuse deeper than this
	// per set misses every cache geometry the repo can configure (MaxWays
	// is 72), so the tail is folded into one deep atom.
	maxDepth = 512
	// wsStride is the sampling stride (in L2 accesses) of the working-set
	// growth checkpoints.
	wsStride = 64
)

// distAtom is one bucket of the per-set LRU depth distribution of the
// L2-bound stream: `mass` of all L2 accesses reuse a block that sat at
// depth `depth` in its set's recency order.
type distAtom struct {
	depth float64
	mass  float64
}

// profile is the measured behaviour of one workload spec at one geometry.
type profile struct {
	h1        float64 // fraction of accesses that hit the L1
	gapP      float64 // geometric parameter of inter-access gaps
	memPerKI  float64
	writeFrac float64
	// dirtyFrac is the fraction of distinct L2-resident blocks that get
	// written at least once — the probability an evicted victim is dirty
	// and must be written back to DRAM. It exceeds writeFrac whenever
	// blocks are reused: one write among many touches dirties the line.
	dirtyFrac float64

	// setsM is the set count of the measurement structure (the run's
	// per-bank set count): atom depths are per-set depths at this S.
	setsM int

	// atoms is the finite-depth part of the L2-stream depth distribution,
	// ascending; coldMass is the first-touch remainder. atom masses +
	// coldMass sum to 1.
	atoms    []distAtom
	coldMass float64

	// Piecewise-linear working-set function: after uN[i] L2 accesses the
	// stream has touched uD[i] distinct blocks. uTailSlope extends the
	// last segment (zero when the footprint saturates).
	uN, uD     []float64
	uTailSlope float64

	// Miss-run clustering curve, sampled at reference per-set capacities:
	// runMR[i] is the stream's miss ratio at capacity i and runLen[i] the
	// mean length of consecutive-miss runs there. Loop-sweep workloads
	// miss in bursts (wrap evictions), so their runs exceed the i.i.d.
	// expectation 1/(1-mr); back-to-back misses share ROB stalls, which
	// the replay window must reproduce.
	runMR, runLen []float64
}

// profileKey identifies one cached profile: the spec's content (not just
// its name), the set scale, and the L1 geometry the pass ran against.
type profileKey struct {
	fp     uint64
	bpw    int
	l1Sets int
	l1Ways int
	l1Repl int
}

// profEntry single-flights one profile build: concurrent callers (parallel
// cores in New, parallel campaign jobs) share one pass instead of
// duplicating it.
type profEntry struct {
	once sync.Once
	p    *profile
	err  error
}

var (
	profMu    sync.Mutex
	profCache = map[profileKey]*profEntry{}
)

// specFingerprint hashes every content field of a spec.
func specFingerprint(spec trace.Spec) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	h.Write([]byte(spec.Name))
	put(spec.ColdFrac)
	put(spec.LoopMass)
	put(spec.LoopWays)
	put(spec.WriteFrac)
	put(spec.MemPerKI)
	put(spec.FootprintWays)
	put(float64(len(spec.HitMass)))
	for _, m := range spec.HitMass {
		put(m)
	}
	return h.Sum64()
}

// profileFor returns the (possibly cached) profile of spec at the given
// block scale (BlocksPerWay == per-bank set count, as sim.New wires it) and
// L1 geometry. Profiles are deterministic functions of their key — a fixed
// internal seed, independent of the simulation seed — so concurrent or
// repeated computation always lands on identical values and the cache never
// affects results.
func profileFor(spec trace.Spec, bpw int, l1 cache.Config) (*profile, error) {
	key := profileKey{
		fp:     specFingerprint(spec),
		bpw:    bpw,
		l1Sets: l1.Sets,
		l1Ways: l1.Ways,
		l1Repl: int(l1.Replacement),
	}
	profMu.Lock()
	e, ok := profCache[key]
	if !ok {
		e = &profEntry{}
		profCache[key] = e
	}
	profMu.Unlock()
	e.once.Do(func() { e.p, e.err = buildProfile(spec, bpw, l1) })
	return e.p, e.err
}

// buildProfile runs the measurement pass described in the package comment.
// The measurement structure is an unbounded-way (depth-capped) LRU with the
// run's per-bank set geometry, fed the L1-filtered stream — per-set depths
// in it are exactly the quantity the MSA profiler samples and the quantity
// that decides hit/miss in any way allocation.
func buildProfile(spec trace.Spec, bpw int, l1cfg cache.Config) (*profile, error) {
	// Fixed profiling seed: profiles describe the workload, not one run.
	rng := stats.NewRNG(0x5eedfa57ba11ad11, 0x9e3779b97f4a7c15)
	gen, err := trace.NewGenerator(spec, rng, trace.GeneratorConfig{
		BlocksPerWay: bpw,
		Base:         trace.Addr(1) << 40,
	})
	if err != nil {
		return nil, fmt.Errorf("fastsim: profiling %q: %w", spec.Name, err)
	}
	l1, err := cache.NewBank(l1cfg)
	if err != nil {
		return nil, fmt.Errorf("fastsim: profiling %q: %w", spec.Name, err)
	}

	sets := bpw // sim.New sets BlocksPerWay = per-bank set count
	lists := make([][]uint64, sets)
	counts := make([]float64, maxDepth+1)
	runCaps := []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128}
	runMiss := make([]float64, len(runCaps))
	runRuns := make([]float64, len(runCaps))
	runPrev := make([]bool, len(runCaps))
	var coldCount, l2Count, hits, total float64
	var distinct float64
	var uN, uD []float64
	var sinceCkpt int
	// bit 0: block appeared in the L2 stream; bit 1: block was written
	// (writes that hit the L1 still dirty the L2 copy via the L1-victim
	// writeback path).
	blockState := map[uint64]uint8{}

	for t := 0; t < profileEvents; t++ {
		ev := gen.Next()
		if ev.Access.Write {
			blockState[uint64(ev.Access.Addr)>>trace.BlockBits] |= 2
		}
		res := l1.Access(ev.Access.Addr, 0, ev.Access.Write)
		measured := t >= profileWarmup
		if measured {
			total++
		}
		if res.Hit {
			if measured {
				hits++
			}
			continue
		}
		// L2-bound access: exact per-set LRU depth.
		blk := uint64(ev.Access.Addr) >> trace.BlockBits
		blockState[blk] |= 1
		set := int(blk) & (sets - 1)
		list := lists[set]
		depth := -1
		for i, b := range list {
			if b == blk {
				depth = i
				break
			}
		}
		if depth < 0 {
			distinct++
			if len(list) == maxDepth {
				list = list[:maxDepth-1]
			}
			list = append(list, 0)
			copy(list[1:], list)
			list[0] = blk
		} else {
			copy(list[1:depth+1], list[:depth])
			list[0] = blk
		}
		lists[set] = list
		if measured {
			l2Count++
			if depth < 0 {
				coldCount++
			} else if depth >= maxDepth {
				counts[maxDepth]++
			} else {
				counts[depth]++
			}
		}
		for i, w := range runCaps {
			miss := depth < 0 || depth >= w
			if miss && measured {
				runMiss[i]++
				if !runPrev[i] {
					runRuns[i]++
				}
			}
			// Warm-up transitions keep the run state coherent but are
			// not counted.
			runPrev[i] = miss
		}
		// Working-set checkpoints span the whole pass: U(n) describes the
		// stream from its start, which is what the cold-start transient
		// model needs.
		sinceCkpt++
		if sinceCkpt == wsStride {
			sinceCkpt = 0
			uN = append(uN, float64(len(uN)+1)*wsStride)
			uD = append(uD, distinct)
		}
	}

	p := &profile{
		gapP:      1 / (spec.GapMeanInstructions() + 1),
		memPerKI:  spec.MemPerKI,
		writeFrac: spec.WriteFrac,
		setsM:     sets,
	}
	if total > 0 {
		p.h1 = hits / total
	}
	if l2Count == 0 {
		// Degenerate: no L2 traffic at all. Everything downstream treats
		// the workload as miss-free.
		return p, nil
	}
	p.coldMass = coldCount / l2Count
	var l2Blocks, dirtyBlocks float64
	for _, st := range blockState {
		if st&1 != 0 {
			l2Blocks++
			if st&2 != 0 {
				dirtyBlocks++
			}
		}
	}
	if l2Blocks > 0 {
		p.dirtyFrac = dirtyBlocks / l2Blocks
	}
	for d := 0; d <= maxDepth; d++ {
		if counts[d] == 0 {
			continue
		}
		p.atoms = append(p.atoms, distAtom{
			depth: float64(d),
			mass:  counts[d] / l2Count,
		})
	}
	// Thin the working-set curve: keep every checkpoint while growth is
	// fast, then geometrically sparser ones (the curve is near-linear at
	// the tail, so sparse points lose nothing).
	p.uN = append(p.uN, 0)
	p.uD = append(p.uD, 0)
	keepEvery := 1
	for i := 0; i < len(uN); i += keepEvery {
		p.uN = append(p.uN, uN[i])
		p.uD = append(p.uD, uD[i])
		if len(p.uN)%64 == 0 {
			keepEvery *= 2
		}
	}
	if last := len(uN) - 1; p.uN[len(p.uN)-1] != uN[last] {
		p.uN = append(p.uN, uN[last])
		p.uD = append(p.uD, uD[last])
	}
	// Keep only well-populated clustering samples (>=64 runs) and store
	// them by descending miss ratio for interpolation.
	for i := range runCaps {
		if runRuns[i] < 64 || runMiss[i] <= 0 {
			continue
		}
		p.runMR = append(p.runMR, runMiss[i]/l2Count)
		p.runLen = append(p.runLen, runMiss[i]/runRuns[i])
	}
	// Tail slope from the last quarter of the pass: the stationary
	// first-touch rate.
	q := len(uN) * 3 / 4
	if q < len(uN)-1 {
		p.uTailSlope = (uD[len(uN)-1] - uD[q]) / (uN[len(uN)-1] - uN[q])
	}
	return p, nil
}

// effWbFrac returns the DRAM writeback probability per L2 miss the replay
// window should use. A victim is dirty when the block was written during
// its residency: more often than the per-access write ratio (any one of
// several touches suffices) but less often than the ever-written block
// fraction (a block evicted and refetched k times pays k misses but not k
// writeback opportunities per write). The geometric midpoint tracks the
// detailed engine's measured writeback-per-miss rate across modes.
func (p *profile) effWbFrac() float64 {
	return math.Sqrt(p.writeFrac * p.dirtyFrac)
}

// runLenAt returns the expected consecutive-miss run length of the stream
// at miss ratio m2, interpolated on the profiled clustering curve (miss
// ratio decreases monotonically along runMR as capacity grows).
func (p *profile) runLenAt(m2 float64) float64 {
	if len(p.runMR) == 0 {
		return 1
	}
	if m2 >= p.runMR[0] {
		return p.runLen[0]
	}
	last := len(p.runMR) - 1
	if m2 <= p.runMR[last] {
		return p.runLen[last]
	}
	for i := 0; i < last; i++ {
		hi, lo := p.runMR[i], p.runMR[i+1]
		if m2 <= hi && m2 >= lo {
			span := hi - lo
			if span <= 0 {
				return p.runLen[i]
			}
			f := (m2 - lo) / span
			return p.runLen[i+1] + f*(p.runLen[i]-p.runLen[i+1])
		}
	}
	return p.runLen[last]
}

// distinctAfter returns U(n): the expected number of distinct blocks the
// stream touches in n L2 accesses.
func (p *profile) distinctAfter(n float64) float64 {
	if n <= 0 || len(p.uN) == 0 {
		return 0
	}
	lo, hi := 0, len(p.uN)-1
	if n >= p.uN[hi] {
		return p.uD[hi] + p.uTailSlope*(n-p.uN[hi])
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if p.uN[mid] <= n {
			lo = mid
		} else {
			hi = mid
		}
	}
	span := p.uN[hi] - p.uN[lo]
	if span <= 0 {
		return p.uD[lo]
	}
	return p.uD[lo] + (p.uD[hi]-p.uD[lo])*(n-p.uN[lo])/span
}

// accessesToSpan returns n(d): the expected number of L2 accesses needed
// to touch d distinct blocks — the inverse of distinctAfter.
func (p *profile) accessesToSpan(d float64) float64 {
	if d <= 0 || len(p.uD) == 0 {
		return 0
	}
	lo, hi := 0, len(p.uD)-1
	if d >= p.uD[hi] {
		if p.uTailSlope <= 0 {
			return p.uN[hi]
		}
		return p.uN[hi] + (d-p.uD[hi])/p.uTailSlope
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if p.uD[mid] <= d {
			lo = mid
		} else {
			hi = mid
		}
	}
	span := p.uD[hi] - p.uD[lo]
	if span <= 0 {
		return p.uN[lo]
	}
	return p.uN[lo] + (p.uN[hi]-p.uN[lo])*(d-p.uD[lo])/span
}
