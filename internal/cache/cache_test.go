package cache

import (
	"testing"
	"testing/quick"

	"bankaware/internal/stats"
	"bankaware/internal/trace"
)

func blockAddr(set, tag uint64, sets int) trace.Addr {
	blk := tag*uint64(sets) + set
	return trace.Addr(blk << trace.BlockBits)
}

func TestConfigValidate(t *testing.T) {
	good := Config{Sets: 64, Ways: 8}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for _, c := range []Config{
		{Sets: 0, Ways: 8},
		{Sets: 63, Ways: 8},
		{Sets: -4, Ways: 8},
		{Sets: 64, Ways: 0},
		{Sets: 64, Ways: 9},
		{Sets: 64, Ways: 64},
		{Sets: 64, Ways: 300},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("invalid config accepted: %+v", c)
		}
	}
	if good.Blocks() != 512 {
		t.Fatalf("Blocks = %d", good.Blocks())
	}
}

func TestOwnerMask(t *testing.T) {
	m := AllCores(3)
	if !m.Has(0) || !m.Has(2) || m.Has(3) {
		t.Fatalf("AllCores(3) = %b", m)
	}
	if m.Count() != 3 {
		t.Fatalf("Count = %d", m.Count())
	}
	m = m.With(5)
	if !m.Has(5) || m.Count() != 4 {
		t.Fatalf("With(5) = %b", m)
	}
	if AllCores(99).Count() != MaxCores {
		t.Fatal("AllCores should clamp to MaxCores")
	}
}

func TestBankHitMiss(t *testing.T) {
	b := MustBank(Config{Sets: 4, Ways: 2})
	a := blockAddr(1, 7, 4)
	r := b.Access(a, 0, false)
	if r.Hit {
		t.Fatal("first access should miss")
	}
	r = b.Access(a, 0, false)
	if !r.Hit {
		t.Fatal("second access should hit")
	}
	st := b.Stats()
	if st.Accesses != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.PerCoreMiss[0] != 1 || st.PerCoreAccess[0] != 2 {
		t.Fatalf("per-core stats = %+v", st)
	}
}

func TestBankLRUReplacement(t *testing.T) {
	b := MustBank(Config{Sets: 1, Ways: 2})
	a0 := blockAddr(0, 0, 1)
	a1 := blockAddr(0, 1, 1)
	a2 := blockAddr(0, 2, 1)
	b.Access(a0, 0, false)
	b.Access(a1, 0, false)
	b.Access(a0, 0, false) // a0 is now MRU, a1 LRU
	r := b.Access(a2, 0, false)
	if !r.VictimValid || r.VictimAddr != a1 {
		t.Fatalf("victim = %+v, want eviction of a1", r)
	}
	if !b.Probe(a0) || b.Probe(a1) || !b.Probe(a2) {
		t.Fatal("residency after eviction is wrong")
	}
}

func TestBankDirtyWriteback(t *testing.T) {
	b := MustBank(Config{Sets: 1, Ways: 1})
	a0 := blockAddr(0, 0, 1)
	a1 := blockAddr(0, 1, 1)
	b.Access(a0, 0, true) // dirty
	r := b.Access(a1, 0, false)
	if !r.VictimValid || !r.VictimDirty || r.VictimAddr != a0 {
		t.Fatalf("dirty eviction not reported: %+v", r)
	}
	if b.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d", b.Stats().Writebacks)
	}
	// Clean line evicts without writeback.
	r = b.Access(a0, 0, false)
	if !r.VictimValid || r.VictimDirty {
		t.Fatalf("clean eviction misreported: %+v", r)
	}
	if b.Stats().Writebacks != 1 {
		t.Fatal("writeback counted for clean eviction")
	}
}

func TestBankWriteHitDirties(t *testing.T) {
	b := MustBank(Config{Sets: 1, Ways: 2})
	a0 := blockAddr(0, 0, 1)
	b.Access(a0, 0, false)
	b.Access(a0, 0, true) // write hit dirties the line
	b.Access(blockAddr(0, 1, 1), 0, false)
	r := b.Access(blockAddr(0, 2, 1), 0, false)
	if !r.VictimDirty {
		t.Fatal("write-hit dirtied line was evicted clean")
	}
}

func TestWayPartitionIsolation(t *testing.T) {
	// Core 0 owns ways {0,1}, core 1 owns ways {2,3}. Core 1's misses must
	// never evict core 0's lines.
	b := MustBank(Config{Sets: 2, Ways: 4})
	owners := []OwnerMask{0b01, 0b01, 0b10, 0b10}
	if err := b.SetWayOwners(owners); err != nil {
		t.Fatal(err)
	}
	c0 := []trace.Addr{blockAddr(0, 1, 2), blockAddr(0, 2, 2)}
	for _, a := range c0 {
		b.Access(a, 0, false)
	}
	// Core 1 thrashes the set with many distinct blocks.
	for tag := uint64(10); tag < 40; tag++ {
		b.Access(blockAddr(0, tag, 2), 1, false)
	}
	for _, a := range c0 {
		if !b.Probe(a) {
			t.Fatalf("core 0 line %#x evicted by core 1 traffic", a)
		}
	}
}

func TestSharedWayPairing(t *testing.T) {
	// Two cores sharing a way mask compete only within that mask — the
	// paper's Local-bank pair sharing.
	b := MustBank(Config{Sets: 1, Ways: 4})
	owners := []OwnerMask{0b11, 0b11, 0b100, 0b100}
	if err := b.SetWayOwners(owners); err != nil {
		t.Fatal(err)
	}
	b.Access(blockAddr(0, 1, 1), 0, false)
	b.Access(blockAddr(0, 2, 1), 1, false)
	b.Access(blockAddr(0, 3, 1), 2, false)
	// Core 1 allocates again: victim must come from ways 0-1.
	r := b.Access(blockAddr(0, 4, 1), 1, false)
	if !r.VictimValid || r.VictimAddr != blockAddr(0, 1, 1) {
		t.Fatalf("pair victim = %+v, want core0's LRU line in shared ways", r)
	}
	if !b.Probe(blockAddr(0, 3, 1)) {
		t.Fatal("core 2's private way was disturbed")
	}
}

func TestCrossPartitionHit(t *testing.T) {
	b := MustBank(Config{Sets: 1, Ways: 2})
	a := blockAddr(0, 5, 1)
	b.Access(a, 0, false)
	// Repartition: both ways now belong to core 1 only.
	if err := b.SetWayOwners([]OwnerMask{0b10, 0b10}); err != nil {
		t.Fatal(err)
	}
	r := b.Access(a, 0, false)
	if !r.Hit || !r.CrossPartitionHit {
		t.Fatalf("expected cross-partition hit, got %+v", r)
	}
	if b.Stats().CrossHits != 1 {
		t.Fatalf("CrossHits = %d", b.Stats().CrossHits)
	}
}

func TestAccessPanicsWithoutOwnedWays(t *testing.T) {
	b := MustBank(Config{Sets: 1, Ways: 2})
	if err := b.SetWayOwners([]OwnerMask{0b10, 0b10}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("miss by unowned core must panic (allocator contract)")
		}
	}()
	b.Access(blockAddr(0, 1, 1), 0, false)
}

func TestSetWayOwnersLengthCheck(t *testing.T) {
	b := MustBank(Config{Sets: 1, Ways: 4})
	if err := b.SetWayOwners([]OwnerMask{1}); err == nil {
		t.Fatal("wrong-length owner slice accepted")
	}
}

func TestInvalidate(t *testing.T) {
	b := MustBank(Config{Sets: 2, Ways: 2})
	a := blockAddr(1, 3, 2)
	b.Access(a, 0, true)
	present, dirty := b.Invalidate(a)
	if !present || !dirty {
		t.Fatalf("Invalidate = (%v,%v), want (true,true)", present, dirty)
	}
	if b.Probe(a) {
		t.Fatal("line still present after Invalidate")
	}
	present, _ = b.Invalidate(a)
	if present {
		t.Fatal("double Invalidate reported present")
	}
}

func TestExtractLRUOf(t *testing.T) {
	b := MustBank(Config{Sets: 1, Ways: 4})
	a1 := blockAddr(0, 1, 1)
	a2 := blockAddr(0, 2, 1)
	b.Access(a1, 0, false)
	b.Access(a2, 0, false)
	b.Access(blockAddr(0, 3, 1), 1, true)
	v, dirty, ok := b.ExtractLRUOf(a1, 0)
	if !ok || v != a1 || dirty {
		t.Fatalf("ExtractLRUOf = (%#x,%v,%v), want core0's LRU a1 clean", v, dirty, ok)
	}
	if b.Probe(a1) {
		t.Fatal("extracted line still resident")
	}
	// Core 2 has no lines.
	if _, _, ok := b.ExtractLRUOf(a1, 2); ok {
		t.Fatal("ExtractLRUOf for lineless core reported ok")
	}
}

func TestOccupancyAndValidLines(t *testing.T) {
	b := MustBank(Config{Sets: 2, Ways: 2})
	b.Access(blockAddr(0, 1, 2), 0, false)
	b.Access(blockAddr(1, 1, 2), 3, false)
	occ := b.Occupancy()
	if occ[0] != 1 || occ[3] != 1 {
		t.Fatalf("occupancy = %v", occ)
	}
	if b.ValidLines() != 2 {
		t.Fatalf("ValidLines = %d", b.ValidLines())
	}
}

func TestOwnedWays(t *testing.T) {
	b := MustBank(Config{Sets: 1, Ways: 8})
	owners := make([]OwnerMask, 8)
	for i := range owners {
		if i < 5 {
			owners[i] = 0b01
		} else {
			owners[i] = 0b10
		}
	}
	b.SetWayOwners(owners)
	if b.OwnedWays(0) != 5 || b.OwnedWays(1) != 3 || b.OwnedWays(2) != 0 {
		t.Fatalf("OwnedWays = %d,%d,%d", b.OwnedWays(0), b.OwnedWays(1), b.OwnedWays(2))
	}
}

func TestProbeDoesNotPerturb(t *testing.T) {
	b := MustBank(Config{Sets: 1, Ways: 2})
	a1 := blockAddr(0, 1, 1)
	a2 := blockAddr(0, 2, 1)
	b.Access(a1, 0, false)
	b.Access(a2, 0, false) // a1 is LRU
	before := b.Stats()
	b.Probe(a1) // must not touch LRU order or stats
	if b.Stats() != before {
		t.Fatal("Probe changed statistics")
	}
	r := b.Access(blockAddr(0, 3, 1), 0, false)
	if r.VictimAddr != a1 {
		t.Fatal("Probe perturbed LRU order")
	}
}

func TestBankFullLRUEquivalence(t *testing.T) {
	// With a single core owning everything, a 1-set bank must behave as a
	// textbook LRU cache. Compare against a reference model on random
	// traffic.
	const ways = 8
	b := MustBank(Config{Sets: 1, Ways: ways})
	var ref []trace.Addr // MRU at front
	rng := stats.NewRNG(21, 22)
	for i := 0; i < 20000; i++ {
		a := blockAddr(0, uint64(rng.IntN(20)), 1)
		// Reference LRU.
		refHit := false
		for k, x := range ref {
			if x == a {
				ref = append(ref[:k], ref[k+1:]...)
				refHit = true
				break
			}
		}
		ref = append([]trace.Addr{a}, ref...)
		if len(ref) > ways {
			ref = ref[:ways]
		}
		r := b.Access(a, 0, false)
		if r.Hit != refHit {
			t.Fatalf("access %d (%#x): hit=%v, reference=%v", i, a, r.Hit, refHit)
		}
	}
}

func TestVictimOwnerReported(t *testing.T) {
	b := MustBank(Config{Sets: 1, Ways: 1})
	b.Access(blockAddr(0, 1, 1), 3, false)
	r := b.Access(blockAddr(0, 2, 1), 3, false)
	if r.VictimOwner != 3 {
		t.Fatalf("VictimOwner = %d, want 3", r.VictimOwner)
	}
}

func TestStatsMissRatio(t *testing.T) {
	var s Stats
	if s.MissRatio() != 0 {
		t.Fatal("empty stats MissRatio should be 0")
	}
	s.Accesses, s.Misses = 10, 4
	if s.MissRatio() != 0.4 {
		t.Fatalf("MissRatio = %v", s.MissRatio())
	}
}

func TestPartitionInvariantUnderRandomTraffic(t *testing.T) {
	// Property: with disjoint way partitions, a core's valid-line count in
	// any set never exceeds its way allocation, regardless of traffic.
	check := func(seed uint64, split uint8) bool {
		w0 := int(split)%7 + 1 // 1..7 ways for core 0, rest core 1
		b := MustBank(Config{Sets: 4, Ways: 8})
		owners := make([]OwnerMask, 8)
		for i := range owners {
			if i < w0 {
				owners[i] = 0b01
			} else {
				owners[i] = 0b10
			}
		}
		b.SetWayOwners(owners)
		rng := stats.NewRNG(seed, seed^0xabc)
		for i := 0; i < 3000; i++ {
			core := rng.IntN(2)
			a := blockAddr(uint64(rng.IntN(4)), uint64(rng.IntN(64)), 4)
			b.Access(a, core, rng.Bool(0.3))
		}
		occ := b.Occupancy()
		return occ[0] <= w0*4 && occ[1] <= (8-w0)*4
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMSHRBasics(t *testing.T) {
	m := NewMSHR(2)
	if m.Capacity() != 2 || m.Used() != 0 || m.IsFull() {
		t.Fatal("fresh MSHR state wrong")
	}
	if got := m.Allocate(0x40, 1); got != Primary {
		t.Fatalf("first allocate = %v", got)
	}
	if got := m.Allocate(0x40, 2); got != Merged {
		t.Fatalf("duplicate allocate = %v", got)
	}
	if got := m.Allocate(0x80, 3); got != Primary {
		t.Fatalf("second allocate = %v", got)
	}
	if got := m.Allocate(0xc0, 4); got != Full {
		t.Fatalf("over-capacity allocate = %v", got)
	}
	if !m.InFlight(0x40) || m.InFlight(0xc0) {
		t.Fatal("InFlight wrong")
	}
	ws := m.Complete(0x40)
	if len(ws) != 2 || ws[0] != 1 || ws[1] != 2 {
		t.Fatalf("Complete waiters = %v", ws)
	}
	if m.Used() != 1 {
		t.Fatalf("Used = %d after completion", m.Used())
	}
	if m.Complete(0x40) != nil {
		t.Fatal("double Complete returned waiters")
	}
	if m.Merges() != 1 || m.Rejects() != 1 {
		t.Fatalf("merges=%d rejects=%d", m.Merges(), m.Rejects())
	}
}

func TestMSHRMinimumCapacity(t *testing.T) {
	m := NewMSHR(0)
	if m.Capacity() != 1 {
		t.Fatalf("capacity = %d, want clamped 1", m.Capacity())
	}
}

func TestNewBankRejectsBadConfig(t *testing.T) {
	if _, err := NewBank(Config{Sets: 3, Ways: 2}); err == nil {
		t.Fatal("bad config accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustBank should panic")
		}
	}()
	MustBank(Config{Sets: 3, Ways: 2})
}

func TestResetStats(t *testing.T) {
	b := MustBank(Config{Sets: 1, Ways: 1})
	b.Access(blockAddr(0, 1, 1), 0, false)
	b.ResetStats()
	if b.Stats().Accesses != 0 {
		t.Fatal("ResetStats did not clear counters")
	}
	if !b.Probe(blockAddr(0, 1, 1)) {
		t.Fatal("ResetStats must not drop cache contents")
	}
}

func TestWayOwnersCopy(t *testing.T) {
	b := MustBank(Config{Sets: 1, Ways: 2})
	got := b.WayOwners()
	got[0] = 0
	if b.WayOwners()[0] == 0 {
		t.Fatal("WayOwners returned aliased storage")
	}
}
