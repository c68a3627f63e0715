package coherence

import (
	"testing"

	"bankaware/internal/trace"
)

const blk = trace.Addr(0x1000)

func TestColdReadGivesExclusive(t *testing.T) {
	d := NewDirectory()
	r := d.OnReadMiss(0, blk)
	if r.NewState != Exclusive || r.Source != FromL2 || r.Invalidations != 0 {
		t.Fatalf("cold read = %+v", r)
	}
	if d.StateOf(blk, 0) != Exclusive {
		t.Fatalf("state = %v", d.StateOf(blk, 0))
	}
}

func TestReadSharingDowngradesExclusive(t *testing.T) {
	d := NewDirectory()
	d.OnReadMiss(0, blk) // core 0: E
	r := d.OnReadMiss(1, blk)
	if r.Source != FromCache || r.NewState != Shared {
		t.Fatalf("peer read = %+v", r)
	}
	if d.StateOf(blk, 0) != Shared || d.StateOf(blk, 1) != Shared {
		t.Fatalf("states = %v/%v, want S/S", d.StateOf(blk, 0), d.StateOf(blk, 1))
	}
}

func TestReadFromModifiedMakesOwned(t *testing.T) {
	d := NewDirectory()
	d.OnWriteMiss(0, blk) // core 0: M
	r := d.OnReadMiss(1, blk)
	if r.Source != FromCache || r.NewState != Shared {
		t.Fatalf("read from M = %+v", r)
	}
	if d.StateOf(blk, 0) != Owned {
		t.Fatalf("previous owner state = %v, want O", d.StateOf(blk, 0))
	}
	if d.StateOf(blk, 1) != Shared {
		t.Fatalf("reader state = %v, want S", d.StateOf(blk, 1))
	}
}

func TestWriteMissInvalidatesAll(t *testing.T) {
	d := NewDirectory()
	d.OnReadMiss(0, blk)
	d.OnReadMiss(1, blk)
	d.OnReadMiss(2, blk) // 0,1,2 share
	r := d.OnWriteMiss(3, blk)
	if r.NewState != Modified {
		t.Fatalf("writer state = %v", r.NewState)
	}
	if r.Invalidations != 3 {
		t.Fatalf("invalidations = %d, want 3", r.Invalidations)
	}
	for c := 0; c < 3; c++ {
		if d.StateOf(blk, c) != Invalid {
			t.Fatalf("core %d not invalidated: %v", c, d.StateOf(blk, c))
		}
	}
	if d.StateOf(blk, 3) != Modified {
		t.Fatalf("writer not M: %v", d.StateOf(blk, 3))
	}
}

func TestWriteMissFromModifiedTransfersDirtyData(t *testing.T) {
	d := NewDirectory()
	d.OnWriteMiss(0, blk)
	r := d.OnWriteMiss(1, blk)
	if r.Source != FromCache || r.Invalidations != 1 {
		t.Fatalf("M->M transfer = %+v", r)
	}
	if d.StateOf(blk, 0) != Invalid || d.StateOf(blk, 1) != Modified {
		t.Fatal("ownership did not move")
	}
}

func TestUpgradeFromShared(t *testing.T) {
	d := NewDirectory()
	d.OnReadMiss(0, blk)
	d.OnReadMiss(1, blk) // both S
	r := d.OnUpgrade(0, blk)
	if r.Invalidations != 1 || r.NewState != Modified {
		t.Fatalf("upgrade = %+v", r)
	}
	if d.StateOf(blk, 1) != Invalid || d.StateOf(blk, 0) != Modified {
		t.Fatal("upgrade states wrong")
	}
	if d.Stats().Upgrades != 1 {
		t.Fatal("upgrade not counted")
	}
}

func TestUpgradeFromOwned(t *testing.T) {
	d := NewDirectory()
	d.OnWriteMiss(0, blk)
	d.OnReadMiss(1, blk) // 0: O, 1: S
	r := d.OnUpgrade(0, blk)
	if r.Invalidations != 1 {
		t.Fatalf("upgrade from O invalidations = %d, want 1", r.Invalidations)
	}
	if d.StateOf(blk, 0) != Modified {
		t.Fatal("owner did not reach M")
	}
}

func TestSilentEToMUpgrade(t *testing.T) {
	d := NewDirectory()
	d.OnReadMiss(0, blk) // E
	d.OnWriteHitOwner(0, blk)
	if d.StateOf(blk, 0) != Modified {
		t.Fatalf("E->M upgrade failed: %v", d.StateOf(blk, 0))
	}
	// No-op when not owner.
	d.OnWriteHitOwner(5, blk)
	if d.StateOf(blk, 0) != Modified {
		t.Fatal("foreign WriteHitOwner corrupted state")
	}
}

func TestL1EvictWritebackSemantics(t *testing.T) {
	d := NewDirectory()
	d.OnWriteMiss(0, blk)
	if !d.OnL1Evict(0, blk) {
		t.Fatal("evicting M copy must write back")
	}
	if d.Entries() != 0 {
		t.Fatal("empty entry not reclaimed")
	}
	d.OnReadMiss(1, blk) // E, clean
	if d.OnL1Evict(1, blk) {
		t.Fatal("evicting E copy must not write back")
	}
	// Absent block.
	if d.OnL1Evict(2, blk) {
		t.Fatal("evicting untracked block reported writeback")
	}
}

func TestSharerEvictLeavesOthers(t *testing.T) {
	d := NewDirectory()
	d.OnReadMiss(0, blk)
	d.OnReadMiss(1, blk)
	if d.OnL1Evict(1, blk) {
		t.Fatal("S eviction wrote back")
	}
	if d.StateOf(blk, 0) != Shared {
		t.Fatal("remaining sharer perturbed")
	}
}

func TestOwnedEvictWritesBack(t *testing.T) {
	d := NewDirectory()
	d.OnWriteMiss(0, blk)
	d.OnReadMiss(1, blk) // 0: O
	if !d.OnL1Evict(0, blk) {
		t.Fatal("O eviction must write back")
	}
	if d.StateOf(blk, 1) != Shared {
		t.Fatal("sharer lost its copy on owner eviction")
	}
}

func TestL2EvictBackInvalidates(t *testing.T) {
	d := NewDirectory()
	d.OnWriteMiss(0, blk)
	d.OnReadMiss(1, blk)
	d.OnReadMiss(2, blk)
	inv, wb := d.OnL2EvictAppend(blk, nil)
	if len(inv) != 3 {
		t.Fatalf("invalidated %v, want 3 cores", inv)
	}
	if !wb {
		t.Fatal("dirty (O) data must write back on inclusive eviction")
	}
	if d.Entries() != 0 {
		t.Fatal("entry not removed")
	}
	inv, wb = d.OnL2EvictAppend(blk, nil)
	if inv != nil || wb {
		t.Fatal("evicting untracked block produced effects")
	}
}

func TestReReadByOwnerIsStable(t *testing.T) {
	d := NewDirectory()
	d.OnReadMiss(0, blk)
	r := d.OnReadMiss(0, blk) // L1 lost it silently; directory refreshes
	if r.NewState != Exclusive {
		t.Fatalf("owner re-read state = %v", r.NewState)
	}
}

func TestStatsAccumulate(t *testing.T) {
	d := NewDirectory()
	d.OnReadMiss(0, blk)
	d.OnReadMiss(1, blk)
	d.OnWriteMiss(2, blk)
	s := d.Stats()
	if s.ReadMisses != 2 || s.WriteMisses != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.CacheTransfers == 0 || s.Invalidations == 0 {
		t.Fatalf("transfer/invalidation stats empty: %+v", s)
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		Invalid: "I", Shared: "S", Exclusive: "E", Owned: "O", Modified: "M",
	} {
		if s.String() != want {
			t.Errorf("%v.String() = %q", int(s), s.String())
		}
	}
	if State(42).String() == "" {
		t.Error("unknown state should still render")
	}
}

func TestMultiprogrammedDegeneratesToPrivate(t *testing.T) {
	// Disjoint address spaces (the paper's workloads): no invalidations or
	// cache transfers should ever occur.
	d := NewDirectory()
	for core := 0; core < 8; core++ {
		base := trace.Addr(core) << 32
		for i := trace.Addr(0); i < 100; i++ {
			a := base + i<<trace.BlockBits
			d.OnReadMiss(core, a)
			d.OnWriteHitOwner(core, a)
			if i%3 == 0 {
				d.OnL1Evict(core, a)
			}
		}
	}
	s := d.Stats()
	if s.Invalidations != 0 || s.CacheTransfers != 0 {
		t.Fatalf("private workloads caused coherence traffic: %+v", s)
	}
}
