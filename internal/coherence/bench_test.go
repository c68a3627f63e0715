package coherence

import (
	"testing"

	"bankaware/internal/stats"
	"bankaware/internal/trace"
)

// The directory's hot path must stay allocation-free in steady state
// (DESIGN.md, "Performance model"), so the benchmark has a test beside it
// that runs its loop over the same fixture and counts the allocations. The
// count covers a whole pass after a warm-up pass: a per-call average would
// round a fraction of an allocation a call down to 0.

const directoryMask = 1<<16 - 1

// directoryFixture is an empty directory and a random block stream over a
// large block population.
func directoryFixture() (*Directory, []trace.Addr) {
	d := NewDirectory()
	rng := stats.NewRNG(7, 8)
	addrs := make([]trace.Addr, directoryMask+1)
	for i := range addrs {
		addrs[i] = trace.Addr(rng.IntN(1<<24)) << trace.BlockBits
	}
	return d, addrs
}

// BenchmarkDirectoryAccess measures the MOESI directory's hot path: read
// and write misses interleaved with L1 evictions, the allocate/lookup/
// delete churn the directory sees on every L2-level event.
func BenchmarkDirectoryAccess(b *testing.B) {
	d, addrs := directoryFixture()
	addrs = addrs[:directoryMask+1] // a constant length drops the loop's bounds checks
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i&directoryMask]
		c := i & 7
		if i&3 == 3 {
			d.OnWriteMiss(c, a)
		} else {
			d.OnReadMiss(c, a)
		}
		// Retire an older block by the same core: exercises lookup+delete.
		d.OnL1Evict(c, addrs[(i-8)&directoryMask])
	}
}

func TestDirectoryAccessAllocs(t *testing.T) {
	d, addrs := directoryFixture()
	allocs := testing.AllocsPerRun(1, func() {
		for i, a := range addrs {
			c := i & 7
			if i&3 == 3 {
				d.OnWriteMiss(c, a)
			} else {
				d.OnReadMiss(c, a)
			}
			d.OnL1Evict(c, addrs[(i-8)&directoryMask])
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations in %d directory miss/evict cycles, want 0", allocs, len(addrs))
	}
}
