package msa

import (
	"testing"

	"bankaware/internal/stats"
	"bankaware/internal/trace"
)

// The profiler's hot path must stay allocation-free in steady state
// (DESIGN.md, "Performance model"), so each benchmark has a test beside it
// that runs its loop over the same fixture and counts the allocations. The
// count covers a whole pass after a warm-up pass: a per-call average would
// round a fraction of an allocation a call down to 0.

const profilerMask = 1<<14 - 1

// sampledFixture is the baseline hardware profiler and a block stream in
// which every address lands in a sampled set: shifting the block number
// past the sample bits zeroes the set's low SampleLog2 bits.
func sampledFixture() (*Profiler, []trace.Addr) {
	p := MustProfiler(BaselineHardware())
	rng := stats.NewRNG(3, 4)
	addrs := make([]trace.Addr, profilerMask+1)
	for i := range addrs {
		addrs[i] = trace.Addr(rng.IntN(1<<20)) << (trace.BlockBits + 5)
	}
	return p, addrs
}

// unsampledFixture is the baseline hardware profiler and a block stream in
// which every address lands in an unsampled set.
func unsampledFixture() (*Profiler, []trace.Addr) {
	p := MustProfiler(BaselineHardware())
	rng := stats.NewRNG(5, 6)
	addrs := make([]trace.Addr, profilerMask+1)
	for i := range addrs {
		blk := uint64(rng.IntN(1<<20))<<5 | uint64(rng.IntN(31)+1) // low set bits non-zero
		addrs[i] = trace.Addr(blk << trace.BlockBits)
	}
	return p, addrs
}

// BenchmarkProfilerAccess measures the hardware MSA profiler's hot path.
// Every address lands in a sampled set (the 1-in-32 skip path is measured
// by BenchmarkProfilerAccessUnsampled), so this is the cost of the real
// stack-distance work: tag lookup, depth count, move-to-front.
func BenchmarkProfilerAccess(b *testing.B) {
	p, addrs := sampledFixture()
	addrs = addrs[:profilerMask+1] // a constant length drops the loop's bounds check
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Access(addrs[i&profilerMask])
	}
}

// BenchmarkProfilerAccessUnsampled measures the profiler's 31-in-32 skip
// path: the access lands in an unsampled set and must cost only the set
// decode.
func BenchmarkProfilerAccessUnsampled(b *testing.B) {
	p, addrs := unsampledFixture()
	addrs = addrs[:profilerMask+1] // a constant length drops the loop's bounds check
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Access(addrs[i&profilerMask])
	}
}

func TestProfilerAccessAllocs(t *testing.T) {
	checkAccessAllocs(t, sampledFixture)
}

func TestProfilerAccessUnsampledAllocs(t *testing.T) {
	checkAccessAllocs(t, unsampledFixture)
}

// checkAccessAllocs runs the fixture's stream through its profiler and
// fails if the accesses allocate.
func checkAccessAllocs(t *testing.T, fixture func() (*Profiler, []trace.Addr)) {
	p, addrs := fixture()
	allocs := testing.AllocsPerRun(1, func() {
		for _, a := range addrs {
			p.Access(a)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations in %d Profiler.Access calls, want 0", allocs, len(addrs))
	}
}
