package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"bankaware/internal/trace"
)

// refBank is the pre-optimization reference implementation of the way-
// partitioned LRU bank: per-set line structs plus a slice-shuffle recency
// order (MRU at the front, `copy` on every touch). It is kept as a
// test-only oracle for the SWAR set state that replaced it — diffStream
// below drives both over randomized operation streams and demands
// identical observable behaviour.
type refLine struct {
	tag   uint64
	valid bool
	dirty bool
	owner uint8
}

type refSet struct {
	lines []refLine
	order []uint8 // way indices, MRU first
}

type refBank struct {
	cfg      Config
	sets     []refSet
	wayOwner []OwnerMask
	setMask  uint64
	setBits  uint
	stats    Stats
}

func newRefBank(cfg Config) *refBank {
	b := &refBank{
		cfg:      cfg,
		sets:     make([]refSet, cfg.Sets),
		wayOwner: make([]OwnerMask, cfg.Ways),
		setMask:  uint64(cfg.Sets - 1),
	}
	for 1<<b.setBits < cfg.Sets {
		b.setBits++
	}
	for i := range b.sets {
		b.sets[i].lines = make([]refLine, cfg.Ways)
		b.sets[i].order = make([]uint8, cfg.Ways)
		for w := 0; w < cfg.Ways; w++ {
			b.sets[i].order[w] = uint8(w)
		}
	}
	all := AllCores(MaxCores)
	for w := range b.wayOwner {
		b.wayOwner[w] = all
	}
	return b
}

func (b *refBank) decompose(addr trace.Addr) (uint64, uint64) {
	blk := uint64(addr) >> trace.BlockBits
	return blk & b.setMask, blk >> b.setBits
}

func (b *refBank) compose(set, tag uint64) trace.Addr {
	return trace.Addr((tag<<b.setBits | set) << trace.BlockBits)
}

func (s *refSet) touch(w int) {
	pos := -1
	for i, o := range s.order {
		if int(o) == w {
			pos = i
			break
		}
	}
	if pos <= 0 {
		if pos == 0 {
			return
		}
		panic("refBank: way missing from LRU order")
	}
	copy(s.order[1:pos+1], s.order[:pos])
	s.order[0] = uint8(w)
}

func (b *refBank) setWayOwners(owners []OwnerMask) {
	copy(b.wayOwner, owners)
}

func (b *refBank) victim(s *refSet, core int) int {
	for w := range s.lines {
		if !s.lines[w].valid && b.wayOwner[w].Has(core) {
			return w
		}
	}
	for i := len(s.order) - 1; i >= 0; i-- {
		w := int(s.order[i])
		if b.wayOwner[w].Has(core) {
			return w
		}
	}
	return -1
}

func (b *refBank) access(addr trace.Addr, core int, write bool) Result {
	b.stats.Accesses++
	b.stats.PerCoreAccess[core]++
	si, tag := b.decompose(addr)
	s := &b.sets[si]
	for w := range s.lines {
		if s.lines[w].valid && s.lines[w].tag == tag {
			cross := !b.wayOwner[w].Has(core)
			if cross && b.cfg.StrictLookup {
				continue
			}
			b.stats.Hits++
			if write {
				s.lines[w].dirty = true
			}
			s.touch(w)
			if cross {
				b.stats.CrossHits++
			}
			return Result{Hit: true, HitWay: w, CrossPartitionHit: cross}
		}
	}
	b.stats.Misses++
	b.stats.PerCoreMiss[core]++
	if b.cfg.StrictLookup {
		for w := range s.lines {
			if s.lines[w].valid && s.lines[w].tag == tag {
				s.lines[w] = refLine{}
			}
		}
	}
	victim := b.victim(s, core)
	if victim < 0 {
		panic("refBank: core owns no ways")
	}
	res := Result{}
	b.fill(si, s, victim, tag, core, write, &res)
	return res
}

func (b *refBank) fill(si uint64, s *refSet, victim int, tag uint64, core int, dirty bool, res *Result) {
	vl := &s.lines[victim]
	if vl.valid {
		b.stats.Evictions++
		res.VictimValid = true
		res.VictimAddr = b.compose(si, vl.tag)
		res.VictimDirty = vl.dirty
		res.VictimOwner = int(vl.owner)
		if vl.dirty {
			b.stats.Writebacks++
		}
	}
	*vl = refLine{tag: tag, valid: true, dirty: dirty, owner: uint8(core)}
	s.touch(victim)
}

func (b *refBank) insert(addr trace.Addr, core int, dirty bool) Result {
	si, tag := b.decompose(addr)
	s := &b.sets[si]
	for w := range s.lines {
		if s.lines[w].valid && s.lines[w].tag == tag {
			if dirty {
				s.lines[w].dirty = true
			}
			s.touch(w)
			return Result{Hit: true, HitWay: w}
		}
	}
	victim := b.victim(s, core)
	if victim < 0 {
		panic("refBank: core owns no ways")
	}
	res := Result{}
	b.fill(si, s, victim, tag, core, dirty, &res)
	return res
}

func (b *refBank) invalidate(addr trace.Addr) (bool, bool) {
	si, tag := b.decompose(addr)
	s := &b.sets[si]
	for w := range s.lines {
		if s.lines[w].valid && s.lines[w].tag == tag {
			d := s.lines[w].dirty
			s.lines[w] = refLine{}
			return true, d
		}
	}
	return false, false
}

func (b *refBank) extractLRUOf(addr trace.Addr, core int) (trace.Addr, bool, bool) {
	si, _ := b.decompose(addr)
	s := &b.sets[si]
	for i := len(s.order) - 1; i >= 0; i-- {
		w := int(s.order[i])
		if s.lines[w].valid && int(s.lines[w].owner) == core {
			v := s.lines[w]
			s.lines[w] = refLine{}
			return b.compose(si, v.tag), v.dirty, true
		}
	}
	return 0, false, false
}

func (b *refBank) probe(addr trace.Addr) bool {
	si, tag := b.decompose(addr)
	for _, ln := range b.sets[si].lines {
		if ln.valid && ln.tag == tag {
			return true
		}
	}
	return false
}

func (b *refBank) probeFor(addr trace.Addr, core int) bool {
	si, tag := b.decompose(addr)
	for w, ln := range b.sets[si].lines {
		if ln.valid && ln.tag == tag && (!b.cfg.StrictLookup || b.wayOwner[w].Has(core)) {
			return true
		}
	}
	return false
}

func (b *refBank) occupancy() [MaxCores]int {
	var occ [MaxCores]int
	for i := range b.sets {
		for _, ln := range b.sets[i].lines {
			if ln.valid {
				occ[ln.owner]++
			}
		}
	}
	return occ
}

func (b *refBank) validLines() int {
	n := 0
	for i := range b.sets {
		for _, ln := range b.sets[i].lines {
			if ln.valid {
				n++
			}
		}
	}
	return n
}

// randomOwners deals every way of the bank to one of nCores single owners,
// guaranteeing each core keeps at least one way so accesses never panic.
func randomOwners(rng *rand.Rand, ways, nCores int) []OwnerMask {
	owners := make([]OwnerMask, ways)
	for {
		var covered OwnerMask
		for w := range owners {
			c := rng.Intn(nCores)
			owners[w] = OwnerMask(0).With(c)
			covered = covered.With(c)
		}
		if covered == AllCores(nCores) || ways < nCores {
			// With fewer ways than cores full coverage is impossible;
			// the stream below only issues accesses by covered cores.
			return owners
		}
	}
}

// TestLRUDifferential drives the bank against the slice-shuffle reference
// over randomized streams, across strict and lazy lookup and degenerate
// geometries.
func TestLRUDifferential(t *testing.T) {
	configs := []Config{
		{Sets: 4, Ways: 1},
		{Sets: 8, Ways: 3},
		{Sets: 16, Ways: 8},
		{Sets: 4, Ways: 8, StrictLookup: true},
		{Sets: 16, Ways: 5, StrictLookup: true},
	}
	for _, cfg := range configs {
		cfg := cfg
		name := fmt.Sprintf("sets=%d,ways=%d,strict=%v", cfg.Sets, cfg.Ways, cfg.StrictLookup)
		t.Run(name, func(t *testing.T) {
			diffStream(t, cfg, int64(cfg.Sets*100+cfg.Ways), 20000)
		})
	}
}

// FuzzBankDifferential runs diffStream over fuzzed geometries: 1 to 16
// sets, 1 to 8 ways, strict or lazy lookup, and the stream's seed.
func FuzzBankDifferential(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(7), false)
	f.Add(int64(2), uint8(0), uint8(0), true)
	f.Add(int64(3), uint8(4), uint8(4), true)
	f.Fuzz(func(t *testing.T, seed int64, setsLog, ways uint8, strict bool) {
		cfg := Config{Sets: 1 << (setsLog % 5), Ways: 1 + int(ways%maxWays), StrictLookup: strict}
		diffStream(t, cfg, seed, 2000)
	})
}

// diffStream drives a bank and the reference over ops randomized operations
// seeded by seed: hits, misses, writes, Insert refreshes, Invalidate,
// ExtractLRUOf, Probe and ProbeFor, and mid-stream way-ownership changes. It
// demands identical results from every operation, identical valid-line
// counts after each, and identical final stats and occupancy.
func diffStream(t *testing.T, cfg Config, seed int64, ops int) {
	const nCores = 4
	rng := rand.New(rand.NewSource(seed))
	fast := MustBank(cfg)
	ref := newRefBank(cfg)
	owners := make([]OwnerMask, cfg.Ways)
	for w := range owners {
		owners[w] = AllCores(nCores)
	}
	blocks := 4 * cfg.Sets * cfg.Ways
	coreFor := func() int {
		// Pick a core owning at least one way.
		for {
			c := rng.Intn(nCores)
			for _, m := range owners {
				if m.Has(c) {
					return c
				}
			}
		}
	}
	for op := 0; op < ops; op++ {
		addr := trace.Addr(rng.Intn(blocks)) << trace.BlockBits
		switch r := rng.Intn(100); {
		case r < 70:
			c := coreFor()
			write := rng.Intn(3) == 0
			// Strict mode can legitimately leave a core's visible
			// ways empty of allocatable space only if it owns no
			// ways; coreFor prevents that.
			got := fast.Access(addr, c, write)
			want := ref.access(addr, c, write)
			if got != want {
				t.Fatalf("op %d: Access(%#x, core %d, write %v) = %+v, reference %+v",
					op, addr, c, write, got, want)
			}
		case r < 80:
			c := coreFor()
			dirty := rng.Intn(2) == 0
			got := fast.Insert(addr, c, dirty)
			want := ref.insert(addr, c, dirty)
			if got != want {
				t.Fatalf("op %d: Insert = %+v, reference %+v", op, got, want)
			}
		case r < 88:
			gp, gd := fast.Invalidate(addr)
			wp, wd := ref.invalidate(addr)
			if gp != wp || gd != wd {
				t.Fatalf("op %d: Invalidate = (%v,%v), reference (%v,%v)", op, gp, gd, wp, wd)
			}
		case r < 93:
			c := rng.Intn(nCores)
			ga, gd, gok := fast.ExtractLRUOf(addr, c)
			wa, wd, wok := ref.extractLRUOf(addr, c)
			if ga != wa || gd != wd || gok != wok {
				t.Fatalf("op %d: ExtractLRUOf = (%#x,%v,%v), reference (%#x,%v,%v)",
					op, ga, gd, gok, wa, wd, wok)
			}
		case r < 98:
			if fast.Probe(addr) != ref.probe(addr) {
				t.Fatalf("op %d: Probe(%#x) disagrees", op, addr)
			}
			// ProbeFor's core comes from the op count, not the RNG,
			// so the check draws nothing from the stream.
			if c := op % nCores; fast.ProbeFor(addr, c) != ref.probeFor(addr, c) {
				t.Fatalf("op %d: ProbeFor(%#x, core %d) disagrees", op, addr, c)
			}
		default:
			owners = randomOwners(rng, cfg.Ways, nCores)
			if err := fast.SetWayOwners(owners); err != nil {
				t.Fatal(err)
			}
			ref.setWayOwners(owners)
		}
		if fast.ValidLines() != ref.validLines() {
			t.Fatalf("op %d: ValidLines %d, reference %d", op, fast.ValidLines(), ref.validLines())
		}
	}
	if fast.Stats() != ref.stats {
		t.Fatalf("final stats diverge:\n got %+v\nwant %+v", fast.Stats(), ref.stats)
	}
	if fast.Occupancy() != ref.occupancy() {
		t.Fatalf("final occupancy diverges: %v vs %v", fast.Occupancy(), ref.occupancy())
	}
}
