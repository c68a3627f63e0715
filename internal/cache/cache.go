// Package cache implements the physical cache-bank substrate: set-
// associative banks with true-LRU replacement and the vertical, fine-grain
// way-partitioning mechanism of Section III.B of the paper (after Iyer's
// CQoS). Each cache way of a bank belongs to one or more cores; on a miss,
// a modified LRU policy selects the victim among the ways belonging to the
// requesting core only, so different cores' partitions cannot destructively
// interfere. All sets of a bank share the same way assignment, so partition
// granularity within a bank is a whole way — exactly the restriction the
// bank-aware allocator is designed around.
//
// The bank is on the simulator's per-access critical path, so its state is
// laid out for the host cache rather than for readability of a textbook
// structure (see DESIGN.md, "Performance model"). A bank has at most 8
// ways, the paper's bank geometry, and the per-set lookup and replacement
// state is a pair of adjacent 64-bit words (Bank.psr): a partial-tag word
// (a valid bit plus 7 tag bits per way) and a rank word (the way's true-LRU
// stack depth per way). One SWAR compare against the partial-tag word
// rejects a miss or yields the candidate ways, and the LRU victim choice
// and move-to-MRU splice are branchless register arithmetic on the rank
// word (O(1) touch and victim selection, no per-hit copying); the full-tag
// array is read only to confirm candidates (~1/128 false-positive rate per
// way) and to report the evicted block. Every lookup is find's SWAR compare
// (Access inlines its loop), and every fill takes its way from one victim
// routine. The steady-state access path performs no heap allocation; a
// differential test and its fuzz target check the bank against a
// straightforward slice-shuffle LRU oracle.
package cache

import (
	"fmt"
	"math/bits"

	"bankaware/internal/trace"
)

// MaxCores bounds the owner bitmask width. The baseline system has 8 cores;
// 16 leaves headroom for the scaled-up configurations in the ablations.
const MaxCores = 16

// OwnerMask is a bitset of cores allowed to allocate into a way.
type OwnerMask uint16

// AllCores returns the mask covering cores [0, n).
func AllCores(n int) OwnerMask {
	if n >= MaxCores {
		return OwnerMask(1<<MaxCores - 1)
	}
	return OwnerMask(1<<n - 1)
}

// Has reports whether core is in the mask.
func (m OwnerMask) Has(core int) bool { return m&(1<<core) != 0 }

// With returns the mask with core added.
func (m OwnerMask) With(core int) OwnerMask { return m | 1<<core }

// Count returns the number of cores in the mask.
func (m OwnerMask) Count() int { return bits.OnesCount16(uint16(m)) }

// Config describes one physical cache bank.
type Config struct {
	Sets int // number of sets; must be a power of two
	Ways int // associativity, at most maxWays
	// Replacement selects the victim policy; the zero value is true LRU.
	Replacement ReplacementPolicy
	// StrictLookup restricts hits to the requester's own ways — the
	// literal reading of the paper's "only cache-ways that belong to a
	// specific core ... can be accessed". The default (false) hits
	// anywhere and enforces ownership on allocation only, the UCP/CQoS
	// behaviour: after a repartition, a core keeps hitting its blocks in
	// ways it just lost until they age out. Strict mode forfeits those
	// blocks immediately (the re-fetch also invalidates the stale copy so
	// a set never holds duplicates); the strict-lookup ablation quantifies
	// the repartitioning cost difference.
	StrictLookup bool
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache: sets must be a positive power of two, got %d", c.Sets)
	}
	if c.Ways <= 0 || c.Ways > maxWays {
		return fmt.Errorf("cache: ways must be in [1,%d], got %d", maxWays, c.Ways)
	}
	switch c.Replacement {
	case LRU:
	case TreePLRU:
		if err := validatePLRU(c.Ways); err != nil {
			return err
		}
	default:
		return fmt.Errorf("cache: unknown replacement policy %d", c.Replacement)
	}
	return nil
}

// maxWays bounds a bank's associativity: a set's state words hold one byte
// lane per way.
const maxWays = 8

// Blocks returns the bank's capacity in cache blocks.
func (c Config) Blocks() int { return c.Sets * c.Ways }

// invalidTag marks an invalid line in the packed tags array. A real tag is
// a block number shifted right by log2(Sets): at most 64-trace.BlockBits
// significant bits, so the all-ones value can never collide with one. This
// lets residency be tested with a single compare per way.
const invalidTag = ^uint64(0)

// Per-way metadata byte layout (Bank.meta): bit 0 dirty, bits 4..7 the
// allocating core. Validity is carried by the tag (invalidTag), not a bit.
const (
	metaDirty      = 1 << 0
	metaOwnerShift = 4
)

const (
	swarOnes  = 0x0101010101010101
	swarHighs = 0x8080808080808080
)

// partialOf returns the partial-tag lane byte for a full tag: the valid bit
// 0x80 plus the low 7 tag bits, so a valid lane is never the 0 that marks
// an invalid one.
func partialOf(tag uint64) uint64 { return tag&0x7F | 0x80 }

// zeroBytes flags with 0x80 each byte position of x that holds zero. The
// subtraction's borrow can also flag a 0x01 byte above a zero byte, so only
// the lowest flag is certain: find confirms every flagged lane against the
// full tag, victim's rank-7 search takes the lowest flag, and a partial-tag
// word, where victim looks for invalid lanes, has no 0x01 byte.
func zeroBytes(x uint64) uint64 { return (x - swarOnes) &^ x & swarHighs }

// byteMaskToWays packs a 0x80-per-byte mask into a way bitmask (bit w set
// iff byte w was flagged).
func byteMaskToWays(m uint64) uint32 {
	return uint32(((m >> 7) * 0x0102040810204080) >> 56)
}

// rankMTF splices way w (shift sh = 8*w, current rank r > 0) to the MRU
// position of rank word rv: every lane ranked below r sinks one, lane w
// becomes rank 0. The lane-wise compare is exact because every rank is
// below 0x80 and live ranks are distinct; the borrow chain can only
// corrupt lane w itself, which is excluded from the increment and then
// rewritten to 0.
func rankMTF(rv, r uint64, sh uint) uint64 {
	lt := (rv - r*swarOnes) & swarHighs &^ (0x80 << sh)
	return (rv + lt>>7) &^ (0xFF << sh)
}

// Result reports the outcome of a bank access.
type Result struct {
	Hit bool
	// HitWay is the way that hit (valid only when Hit).
	HitWay int
	// CrossPartitionHit is set when the hit landed in a way the requesting
	// core does not currently own — possible right after repartitioning,
	// since enforcement is on allocation, not lookup.
	CrossPartitionHit bool
	// Victim describes an evicted valid line (on a miss that displaced one).
	VictimValid bool
	VictimAddr  trace.Addr
	VictimDirty bool
	VictimOwner int
}

// Stats aggregates bank activity.
type Stats struct {
	Accesses      uint64
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	Writebacks    uint64
	CrossHits     uint64
	PerCoreAccess [MaxCores]uint64
	PerCoreMiss   [MaxCores]uint64
}

// MissRatio returns misses/accesses.
func (s *Stats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Bank is one physical cache bank with way-partitioned LRU replacement.
type Bank struct {
	cfg  Config
	ways int
	// tags[set*ways+way] is the resident full tag, invalidTag when empty.
	tags []uint64
	// meta[set*ways+way] carries the dirty bit and the allocating core.
	meta []uint8
	// psr holds the per-set state pair: psr[2*set] is the partial-tag word
	// (lane w = partialOf(tag), 0 when invalid) and psr[2*set+1] is the rank
	// word (lane w = the way's recency rank, 0 = MRU .. ways-1 = LRU). The
	// two words are interleaved so one cache line serves both. Rank lanes
	// of the first Ways lanes are always a permutation of 0..Ways-1; lanes
	// beyond Ways are pinned to rank 7, which the SWAR arithmetic never
	// disturbs (real ranks stay below 7 whenever Ways < 8). Invalidation
	// clears a lane's partial byte but keeps its rank, so an invalidated
	// way holds its position in the recency order exactly like the
	// reference LRU, which left the slot in place.
	psr      []uint64
	wayOwner []OwnerMask
	// ownedBy[core] is the bitmask of ways core may allocate into — the
	// transpose of wayOwner, kept so the access path tests ownership with
	// register arithmetic instead of per-way slice loads.
	ownedBy [MaxCores]uint32
	setMask uint64
	setBits uint
	stats   Stats
	plru    *plruState // non-nil when cfg.Replacement == TreePLRU
}

// allWays is the lookup mask that sees every way of a set.
const allWays uint32 = 1<<maxWays - 1

// rebuildOwnedBy recomputes the per-core way masks from wayOwner.
func (b *Bank) rebuildOwnedBy() {
	b.ownedBy = [MaxCores]uint32{}
	for w, m := range b.wayOwner {
		for c := 0; c < MaxCores; c++ {
			if m.Has(c) {
				b.ownedBy[c] |= 1 << w
			}
		}
	}
}

// NewBank builds a bank; every way initially belongs to all cores (shared,
// non-partitioned operation).
func NewBank(cfg Config) (*Bank, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &Bank{
		cfg:      cfg,
		ways:     cfg.Ways,
		tags:     make([]uint64, cfg.Sets*cfg.Ways),
		meta:     make([]uint8, cfg.Sets*cfg.Ways),
		psr:      make([]uint64, 2*cfg.Sets),
		wayOwner: make([]OwnerMask, cfg.Ways),
		setMask:  uint64(cfg.Sets - 1),
		setBits:  uint(bits.TrailingZeros64(uint64(cfg.Sets))),
	}
	for i := range b.tags {
		b.tags[i] = invalidTag
	}
	// Initial recency order: way 0 MRU .. way Ways-1 LRU; unused lanes
	// pinned to rank 7.
	var init uint64
	for w := 0; w < maxWays; w++ {
		r := uint64(w)
		if w >= cfg.Ways {
			r = 7
		}
		init |= r << (8 * uint(w))
	}
	for si := 0; si < cfg.Sets; si++ {
		b.psr[2*si+1] = init
	}
	all := AllCores(MaxCores)
	for w := range b.wayOwner {
		b.wayOwner[w] = all
	}
	b.rebuildOwnedBy()
	if cfg.Replacement == TreePLRU {
		b.plru = newPLRUState(cfg.Sets, cfg.Ways)
		b.plru.rebuildOwnership(b.wayOwner)
	}
	return b, nil
}

// MustBank is NewBank that panics on invalid configuration.
func MustBank(cfg Config) *Bank {
	b, err := NewBank(cfg)
	if err != nil {
		panic(err)
	}
	return b
}

// Config returns the bank geometry.
func (b *Bank) Config() Config { return b.cfg }

// Stats returns a snapshot of the bank's counters. The access path only
// maintains the per-core counters plus the eviction-side ones; the
// aggregate Accesses, Misses and Hits are derived here so the hot path
// carries three fewer counter updates.
func (b *Bank) Stats() Stats {
	s := b.stats
	var acc, miss uint64
	for c := range s.PerCoreAccess {
		acc += s.PerCoreAccess[c]
		miss += s.PerCoreMiss[c]
	}
	s.Accesses = acc
	s.Misses = miss
	s.Hits = acc - miss
	return s
}

// ResetStats zeroes the counters (partition state is untouched).
func (b *Bank) ResetStats() { b.stats = Stats{} }

// SetWayOwners installs a new per-way ownership assignment. The slice must
// have exactly Ways entries; a zero mask makes the way unallocatable (legal:
// the allocator may park ways during reconfiguration).
func (b *Bank) SetWayOwners(owners []OwnerMask) error {
	if len(owners) != b.cfg.Ways {
		return fmt.Errorf("cache: got %d way owners for %d ways", len(owners), b.cfg.Ways)
	}
	copy(b.wayOwner, owners)
	b.rebuildOwnedBy()
	if b.plru != nil {
		b.plru.rebuildOwnership(b.wayOwner)
	}
	return nil
}

// WayOwners returns a copy of the current ownership assignment.
func (b *Bank) WayOwners() []OwnerMask {
	return append([]OwnerMask(nil), b.wayOwner...)
}

// OwnedWays returns how many ways core may allocate into.
func (b *Bank) OwnedWays(core int) int {
	n := 0
	for _, m := range b.wayOwner {
		if m.Has(core) {
			n++
		}
	}
	return n
}

func (b *Bank) decompose(addr trace.Addr) (set uint64, tag uint64) {
	blk := uint64(addr) >> trace.BlockBits
	return blk & b.setMask, blk >> b.setBits
}

func (b *Bank) compose(set, tag uint64) trace.Addr {
	blk := tag<<b.setBits | set
	return trace.Addr(blk << trace.BlockBits)
}

// find returns the way of set si that holds tag, looking only at the ways
// in visible, or -1. One SWAR compare against the set's partial-tag word
// rejects an absent block without reading the full tags, and only
// candidate lanes (the real hit plus ~1/128-per-way false positives) are
// confirmed against the full-tag array. A set never holds a tag twice, so
// the first confirmed lane is the only one.
func (b *Bank) find(si, tag uint64, visible uint32) int {
	base := int(si) * b.ways
	for c := zeroBytes(b.psr[2*si] ^ partialOf(tag)*swarOnes); c != 0; c &= c - 1 {
		w := bits.TrailingZeros64(c) >> 3
		if visible>>w&1 != 0 && b.tags[base+w] == tag {
			return w
		}
	}
	return -1
}

// victim returns the way of set si that a fill by core displaces: the
// lowest-indexed invalid way core owns, exactly like the reference
// implementation's linear free-slot scan; else the tree-PLRU victim; else
// core's LRU way, which is the unique rank-7 lane when core owns all eight
// ways and otherwise the deepest-ranked owned way. It panics if core owns
// no ways — the partitioning layer must never let that happen.
func (b *Bank) victim(si uint64, core int) int {
	owned := b.ownedBy[core]
	if m := byteMaskToWays(zeroBytes(b.psr[2*si])) & owned; m != 0 {
		return bits.TrailingZeros32(m)
	}
	if owned == 0 {
		panic(fmt.Sprintf("cache: core %d owns no ways in bank", core))
	}
	if b.plru != nil {
		return b.plru.victim(int(si), core)
	}
	rv := b.psr[2*si+1]
	if owned == allWays {
		return bits.TrailingZeros64(zeroBytes(rv^7*swarOnes)) >> 3
	}
	return deepest(rv, owned)
}

// deepest returns the way in the non-empty way mask m that rank word rv
// ranks deepest. Live ranks are distinct, so it is m's LRU way.
func deepest(rv uint64, m uint32) int {
	way, rank := -1, -1
	for ; m != 0; m &= m - 1 {
		w := bits.TrailingZeros32(m)
		if r := int(rv >> (8 * uint(w)) & 0xFF); r > rank {
			way, rank = w, r
		}
	}
	return way
}

// touch moves way w to the MRU position of its set with the branchless SWAR
// splice of the rank word: no copying and no pointer chasing.
func (b *Bank) touch(si uint64, w int) {
	rv := b.psr[2*si+1]
	sh := 8 * uint(w)
	if r := rv >> sh & 0xFF; r != 0 {
		b.psr[2*si+1] = rankMTF(rv, r, sh)
	}
}

// drop invalidates way w of set si and reports whether its line was dirty.
// The way keeps its rank, as the reference LRU left invalidated entries in
// place.
func (b *Bank) drop(si uint64, w int) (dirty bool) {
	i := int(si)*b.ways + w
	dirty = b.meta[i]&metaDirty != 0
	b.tags[i] = invalidTag
	b.meta[i] = 0
	b.psr[2*si] &^= 0xFF << (8 * uint(w))
	return dirty
}

// Access performs a read or write by core. On a hit the line moves to MRU
// (and is dirtied on writes). On a miss the block is allocated into the
// least recently used way owned by core, evicting its previous occupant.
// Access panics if core owns no ways — the partitioning layer must never
// let that happen (there is a test pinning that contract).
func (b *Bank) Access(addr trace.Addr, core int, write bool) Result {
	if uint(core) >= MaxCores {
		panic(fmt.Sprintf("cache: core %d out of range", core))
	}
	b.stats.PerCoreAccess[core]++
	si, tag := b.decompose(addr)
	owned := b.ownedBy[core]
	base := int(si) * b.ways

	// Lookup: find's SWAR compare, inlined because a hit also reports
	// whether it crossed partitions and a strict-mode miss reuses the
	// candidate mask. Most misses match no partial tag and never read the
	// full-tag array. By default hits land anywhere (enforcement is on
	// allocation only); in strict mode only the requester's ways are
	// visible.
	cand := zeroBytes(b.psr[2*si] ^ partialOf(tag)*swarOnes)
	for c := cand; c != 0; c &= c - 1 {
		w := bits.TrailingZeros64(c) >> 3
		if b.tags[base+w] != tag {
			continue
		}
		cross := owned>>w&1 == 0
		if cross && b.cfg.StrictLookup {
			continue
		}
		if write {
			b.meta[base+w] |= metaDirty
		}
		b.touch(si, w)
		if b.plru != nil {
			b.plru.touch(int(si), w)
		}
		if cross {
			b.stats.CrossHits++
		}
		return Result{Hit: true, HitWay: w, CrossPartitionHit: cross}
	}

	b.stats.PerCoreMiss[core]++
	if b.cfg.StrictLookup && cand != 0 {
		// Drop any stale copy in ways the requester cannot see, so the
		// refill never duplicates the tag within the set.
		if w := b.find(si, tag, allWays); w >= 0 {
			b.drop(si, w)
		}
	}
	victim := b.victim(si, core)
	sh := 8 * uint(victim)
	b.psr[2*si] = b.psr[2*si]&^(0xFF<<sh) | partialOf(tag)<<sh
	b.touch(si, victim)
	if b.plru != nil {
		b.plru.touch(int(si), victim)
	}
	// Tag/meta fill, hand-inlined so the Result is assembled in registers
	// at the return point; the victim-tag read below is the only access
	// that can leave the L1-resident state arrays.
	vi := base + victim
	old := b.tags[vi]
	om := b.meta[vi]
	b.tags[vi] = tag
	fm := uint8(core) << metaOwnerShift
	if write {
		fm |= metaDirty
	}
	b.meta[vi] = fm
	if old == invalidTag {
		return Result{}
	}
	b.stats.Evictions++
	dirty := om&metaDirty != 0
	if dirty {
		b.stats.Writebacks++
	}
	return Result{
		VictimValid: true,
		VictimAddr:  b.compose(si, old),
		VictimDirty: dirty,
		VictimOwner: int(om >> metaOwnerShift),
	}
}

// Insert allocates addr into core's partition as MRU without counting an
// access — the data-movement primitive used by the aggregation schemes'
// migration paths (cascade demotion, promotion fills). It returns eviction
// information exactly like Access. Inserting a block that is already
// resident refreshes it instead of duplicating it.
func (b *Bank) Insert(addr trace.Addr, core int, dirty bool) Result {
	si, tag := b.decompose(addr)
	base := int(si) * b.ways
	w := b.find(si, tag, allWays)
	hit := w >= 0
	res := Result{Hit: hit}
	if hit {
		res.HitWay = w
		if dirty {
			b.meta[base+w] |= metaDirty
		}
	} else {
		w = b.victim(si, core)
		vi := base + w
		if old := b.tags[vi]; old != invalidTag {
			m := b.meta[vi]
			b.stats.Evictions++
			res.VictimValid = true
			res.VictimAddr = b.compose(si, old)
			res.VictimDirty = m&metaDirty != 0
			res.VictimOwner = int(m >> metaOwnerShift)
			if res.VictimDirty {
				b.stats.Writebacks++
			}
		}
		b.tags[vi] = tag
		m := uint8(core) << metaOwnerShift
		if dirty {
			m |= metaDirty
		}
		b.meta[vi] = m
		sh := 8 * uint(w)
		b.psr[2*si] = b.psr[2*si]&^(0xFF<<sh) | partialOf(tag)<<sh
	}
	b.touch(si, w)
	if b.plru != nil {
		b.plru.touch(int(si), w)
	}
	return res
}

// Probe reports whether addr is resident without perturbing LRU state or
// statistics. The coherence directory and the Parallel aggregation scheme's
// multi-bank lookup use it; find rejects an absent block, their common
// case, with one SWAR compare.
func (b *Bank) Probe(addr trace.Addr) bool {
	si, tag := b.decompose(addr)
	return b.find(si, tag, allWays) >= 0
}

// ProbeFor is Probe through core's eyes: under StrictLookup only the
// requester's own ways are visible, matching what a subsequent Access by
// the same core will see.
func (b *Bank) ProbeFor(addr trace.Addr, core int) bool {
	visible := allWays
	if b.cfg.StrictLookup {
		visible = b.ownedBy[core]
	}
	si, tag := b.decompose(addr)
	return b.find(si, tag, visible) >= 0
}

// Invalidate removes addr from the bank if present, returning whether it was
// present and whether it was dirty (needing writeback). Used for inclusive-
// hierarchy back-invalidation and coherence. The way keeps its position in
// the recency order, exactly as the reference LRU left invalidated entries
// in place.
func (b *Bank) Invalidate(addr trace.Addr) (present, dirty bool) {
	si, tag := b.decompose(addr)
	w := b.find(si, tag, allWays)
	if w < 0 {
		return false, false
	}
	return true, b.drop(si, w)
}

// ExtractLRUOf removes the least recently used valid line allocated by core
// from the set that addr maps to, returning its address and dirtiness; ok
// is false when the core has no valid lines in that set.
func (b *Bank) ExtractLRUOf(addr trace.Addr, core int) (victim trace.Addr, dirty, ok bool) {
	si, _ := b.decompose(addr)
	base := int(si) * b.ways
	var mine uint32
	for w := 0; w < b.ways; w++ {
		if b.tags[base+w] != invalidTag && int(b.meta[base+w]>>metaOwnerShift) == core {
			mine |= 1 << w
		}
	}
	if mine == 0 {
		return 0, false, false
	}
	w := deepest(b.psr[2*si+1], mine)
	victim = b.compose(si, b.tags[base+w])
	return victim, b.drop(si, w), true
}

// Occupancy returns the number of valid lines currently owned by each core.
func (b *Bank) Occupancy() [MaxCores]int {
	var occ [MaxCores]int
	for i, tag := range b.tags {
		if tag != invalidTag {
			occ[b.meta[i]>>metaOwnerShift]++
		}
	}
	return occ
}

// Clear invalidates every line and returns the addresses that were valid,
// so an inclusive hierarchy can back-invalidate upper-level copies. Stats
// and way ownership are untouched. The bank-failure fault model uses it: a
// fused-off bank loses its contents (dirty data included) but keeps its
// lifetime counters.
func (b *Bank) Clear() []trace.Addr {
	var dropped []trace.Addr
	for i, tag := range b.tags {
		if tag != invalidTag {
			si := uint64(i / b.ways)
			dropped = append(dropped, b.compose(si, tag))
			b.tags[i] = invalidTag
			b.meta[i] = 0
		}
	}
	for si := 0; si < len(b.psr)/2; si++ {
		b.psr[2*si] = 0
	}
	return dropped
}

// ValidLines returns the total number of valid lines in the bank.
func (b *Bank) ValidLines() int {
	n := 0
	for _, tag := range b.tags {
		if tag != invalidTag {
			n++
		}
	}
	return n
}
