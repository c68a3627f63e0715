package cache

import (
	"testing"

	"bankaware/internal/stats"
	"bankaware/internal/trace"
)

// The bank and MSHR hot paths must stay allocation-free in steady state
// (DESIGN.md, "Performance model"), so each benchmark has a test beside it
// that runs its loop over the same fixture and counts the allocations. The
// count covers a whole pass after a warm-up pass: a per-call average would
// round a fraction of an allocation a call down to 0.

const bankAccessMask = 1<<14 - 1

// bankAccessFixture is a 2048-set, 8-way bank and a random block stream
// over it: the same mix of hits, misses and evictions the L2 banks see in
// a full run.
func bankAccessFixture() (*Bank, []trace.Addr) {
	bank := MustBank(Config{Sets: 2048, Ways: 8})
	rng := stats.NewRNG(1, 2)
	addrs := make([]trace.Addr, bankAccessMask+1)
	for i := range addrs {
		addrs[i] = trace.Addr(rng.IntN(1<<18)) << trace.BlockBits
	}
	return bank, addrs
}

// BenchmarkBankAccess measures the way-partitioned cache bank's hot path,
// with all cores taking turns.
func BenchmarkBankAccess(b *testing.B) {
	bank, addrs := bankAccessFixture()
	addrs = addrs[:bankAccessMask+1] // a constant length drops the loop's bounds check
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank.Access(addrs[i&bankAccessMask], i&7, false)
	}
}

func TestBankAccessAllocs(t *testing.T) {
	bank, addrs := bankAccessFixture()
	allocs := testing.AllocsPerRun(1, func() {
		for i, a := range addrs {
			bank.Access(a, i&7, false)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations in %d Bank.Access calls, want 0", allocs, len(addrs))
	}
}

// BenchmarkMSHRFill measures the miss-status holding registers'
// allocate/complete/release cycle: a primary miss, a merged secondary,
// completion and waiter recycling, the steady-state fill traffic of one
// core.
func BenchmarkMSHRFill(b *testing.B) {
	m := NewMSHR(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := trace.Addr(i&15) << trace.BlockBits
		m.Allocate(a, uint64(i))
		m.Allocate(a, uint64(i)+1) // merged secondary
		ws := m.Complete(a)
		if len(ws) != 2 {
			b.Fatal("merge lost a waiter")
		}
		m.Release(ws)
	}
}

func TestMSHRFillAllocs(t *testing.T) {
	m := NewMSHR(16)
	const cycles = 1000
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < cycles; i++ {
			a := trace.Addr(i&15) << trace.BlockBits
			m.Allocate(a, uint64(i))
			m.Allocate(a, uint64(i)+1)
			ws := m.Complete(a)
			if len(ws) != 2 {
				t.Fatal("merge lost a waiter")
			}
			m.Release(ws)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations in %d MSHR fill cycles, want 0", allocs, cycles)
	}
}
