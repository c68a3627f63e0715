package coherence

import (
	"testing"

	"bankaware/internal/cache"
	"bankaware/internal/stats"
	"bankaware/internal/trace"
)

// mapEntry mirrors what the open-addressing table stores, in the obvious
// map-backed representation the table replaced.
type mapEntry struct {
	owner      int
	ownerState State
	sharers    cache.OwnerMask
}

// mapDirectory is a reference MOESI directory over map[trace.Addr], used as
// a differential oracle for the open-addressing table: same transition
// logic, trivially correct storage.
type mapDirectory struct {
	blocks map[trace.Addr]*mapEntry
}

func (m *mapDirectory) get(addr trace.Addr) *mapEntry {
	e, ok := m.blocks[addr]
	if !ok {
		e = &mapEntry{owner: -1}
		m.blocks[addr] = e
	}
	return e
}

func (m *mapDirectory) readMiss(core int, addr trace.Addr) {
	e := m.get(addr)
	switch {
	case e.owner == core:
	case e.owner >= 0:
		if e.ownerState == Exclusive {
			e.sharers = e.sharers.With(e.owner)
			e.owner = -1
		} else {
			e.ownerState = Owned
		}
		e.sharers = e.sharers.With(core)
	case e.sharers != 0:
		e.sharers = e.sharers.With(core)
	default:
		e.owner = core
		e.ownerState = Exclusive
	}
}

func (m *mapDirectory) writeMiss(core int, addr trace.Addr) {
	e := m.get(addr)
	e.owner = core
	e.ownerState = Modified
	e.sharers = 0
}

func (m *mapDirectory) l1Evict(core int, addr trace.Addr) {
	e, ok := m.blocks[addr]
	if !ok {
		return
	}
	if e.owner == core {
		e.owner = -1
		e.ownerState = Invalid
	} else {
		e.sharers &^= 1 << core
	}
	if e.owner < 0 && e.sharers == 0 {
		delete(m.blocks, addr)
	}
}

func (m *mapDirectory) l2Evict(addr trace.Addr) {
	delete(m.blocks, addr)
}

// TestDirectoryTableDifferential hammers the open-addressing storage — the
// interesting part being linear-probe insertion, growth, and backward-shift
// deletion — against a map reference, over an address population large
// enough to force several growth doublings and long probe clusters, and
// checks full per-core visible state after every operation burst.
func TestDirectoryTableDifferential(t *testing.T) {
	d := NewDirectory()
	ref := &mapDirectory{blocks: map[trace.Addr]*mapEntry{}}
	rng := stats.NewRNG(11, 13)
	const nBlocks = 6000 // > dirMinSlots*0.75: forces grow() at least twice
	blocks := make([]trace.Addr, nBlocks)
	for i := range blocks {
		blocks[i] = trace.Addr(uint64(i) << trace.BlockBits)
	}
	check := func(op int, a trace.Addr) {
		t.Helper()
		for c := 0; c < cache.MaxCores; c++ {
			got, want := d.StateOf(a, c), Invalid
			if e, ok := ref.blocks[a]; ok {
				switch {
				case e.owner == c:
					want = e.ownerState
				case e.sharers.Has(c):
					want = Shared
				}
			}
			if got != want {
				t.Fatalf("op %d: StateOf(%#x, %d) = %v, reference %v", op, a, c, got, want)
			}
		}
		if d.Entries() != len(ref.blocks) {
			t.Fatalf("op %d: Entries() = %d, reference %d", op, d.Entries(), len(ref.blocks))
		}
	}
	for op := 0; op < 60000; op++ {
		a := blocks[rng.IntN(nBlocks)]
		c := rng.IntN(cache.MaxCores)
		switch rng.IntN(10) {
		case 0, 1, 2, 3:
			d.OnReadMiss(c, a)
			ref.readMiss(c, a)
		case 4, 5:
			d.OnWriteMiss(c, a)
			ref.writeMiss(c, a)
		case 6, 7, 8:
			d.OnL1Evict(c, a)
			ref.l1Evict(c, a)
		default:
			d.OnL2EvictAppend(a, nil)
			ref.l2Evict(a)
		}
		if op%17 == 0 {
			check(op, a)
			check(op, blocks[rng.IntN(nBlocks)])
		}
	}
	// Drain fully through the backward-shift delete path and confirm the
	// table empties without stranding unreachable entries.
	for _, a := range blocks {
		d.OnL2EvictAppend(a, nil)
		ref.l2Evict(a)
	}
	if d.Entries() != 0 {
		t.Fatalf("%d entries left after draining every block", d.Entries())
	}
	for _, a := range blocks {
		for c := 0; c < cache.MaxCores; c++ {
			if d.StateOf(a, c) != Invalid {
				t.Fatalf("stale state for %#x core %d after drain", a, c)
			}
		}
	}
}
