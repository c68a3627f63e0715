// Package coherence implements a MOESI directory protocol over the shared
// L2, matching the paper's GEMS memory-system configuration ("a detailed
// message-based model ... using a MOESI cache coherence protocol"). The
// directory tracks, per block, which private L1 caches hold copies and in
// what state; the simulator consults it on every L1 miss, write and
// eviction, and on inclusive L2 evictions (back-invalidation).
//
// States follow the usual MOESI meanings for the copy held by a core:
//
//	M (Modified)  — sole copy, dirty.
//	O (Owned)     — dirty copy, other shared copies may exist; this core
//	                supplies data and is responsible for writeback.
//	E (Exclusive) — sole copy, clean.
//	S (Shared)    — clean copy, others may exist.
//	I (Invalid)   — no copy.
//
// The paper's evaluation workloads are multiprogrammed (no sharing), where
// the protocol degenerates to E/M upgrades; the full state machine is
// nevertheless implemented and exercised by the sharing example and tests.
package coherence

import (
	"fmt"

	"bankaware/internal/cache"
	"bankaware/internal/trace"
)

// State is a MOESI state.
type State int

const (
	Invalid State = iota
	Shared
	Exclusive
	Owned
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Owned:
		return "O"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// DataSource says where a requester's fill data comes from, which the
// simulator maps to a latency class.
type DataSource int

const (
	// FromL2 means the L2/memory hierarchy below supplies the line.
	FromL2 DataSource = iota
	// FromCache means a peer L1 supplies the line (cache-to-cache).
	FromCache
)

// Response describes the directory's answer to a request.
type Response struct {
	// Source of the fill data.
	Source DataSource
	// Invalidations is the number of peer copies invalidated; each costs a
	// network round trip in the simulator's latency model.
	Invalidations int
	// Invalidated is the set of peer cores whose copies this request
	// invalidated (the pre-transition owner and sharers, minus the
	// requester). The simulator clears exactly these peers' L1s instead of
	// scanning every core; Invalidations == Invalidated.Count().
	Invalidated cache.OwnerMask
	// NewState is the state the requester's copy enters.
	NewState State
	// PeerWriteback is set when a dirty peer copy was flushed to L2 as part
	// of serving this request.
	PeerWriteback bool
}

// Stats aggregates protocol activity.
type Stats struct {
	ReadMisses     uint64
	WriteMisses    uint64
	Upgrades       uint64
	Invalidations  uint64
	CacheTransfers uint64
	Writebacks     uint64
}

// entry is one tracked block, stored inline in the directory's
// open-addressing table: 16 bytes, four entries per cache line, no per-block
// heap object or pointer chase.
type entry struct {
	addr       trace.Addr
	sharers    cache.OwnerMask
	owner      int8  // core holding M/O/E; -1 when none
	ownerState uint8 // State of the owner's copy
	full       bool  // slot occupancy (addr 0 is a legal block address)
}

func (e *entry) empty() bool { return e.owner < 0 && e.sharers == 0 }

// Directory is the MOESI directory. It is not safe for concurrent use; the
// discrete-event simulator is single-threaded by design.
//
// Blocks live in a power-of-two open-addressing table with linear probing
// and multiply-shift hashing. Deletion uses backward shifting instead of
// tombstones, so probe sequences never degrade under the constant
// allocate/retire churn of L1 evictions and L2 back-invalidations, and the
// table's load factor is a true occupancy bound.
type Directory struct {
	slots []entry
	count int
	shift uint // 64 - log2(len(slots)), for multiply-shift hashing
	stats Stats
}

const dirMinSlots = 1024

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	d := &Directory{slots: make([]entry, dirMinSlots)}
	d.shift = 64
	for n := 1; n < dirMinSlots; n <<= 1 {
		d.shift--
	}
	return d
}

// home is the preferred slot for addr: Fibonacci multiply-shift on the full
// address (block-aligned, so the multiplier spreads the informative bits
// into the table index).
func (d *Directory) home(addr trace.Addr) uint64 {
	return uint64(addr) * 0x9e3779b97f4a7c15 >> d.shift
}

// find walks addr's probe sequence. It returns the slot holding addr, or
// the first empty slot where it would be inserted.
func (d *Directory) find(addr trace.Addr) (int, bool) {
	mask := uint64(len(d.slots) - 1)
	i := d.home(addr)
	for d.slots[i].full {
		if d.slots[i].addr == addr {
			return int(i), true
		}
		i = (i + 1) & mask
	}
	return int(i), false
}

// get returns the entry for addr, creating a fresh ownerless one if absent.
// The pointer is only valid until the next insertion (the table may grow).
func (d *Directory) get(addr trace.Addr) *entry {
	if d.count >= len(d.slots)-len(d.slots)/4 {
		d.grow()
	}
	i, ok := d.find(addr)
	e := &d.slots[i]
	if !ok {
		*e = entry{addr: addr, owner: -1, full: true}
		d.count++
	}
	return e
}

func (d *Directory) grow() {
	old := d.slots
	d.slots = make([]entry, 2*len(old))
	d.shift--
	mask := uint64(len(d.slots) - 1)
	for i := range old {
		if !old[i].full {
			continue
		}
		j := d.home(old[i].addr)
		for d.slots[j].full {
			j = (j + 1) & mask
		}
		d.slots[j] = old[i]
	}
}

// deleteAt removes the entry at slot i by backward-shifting the rest of the
// probe cluster, keeping every survivor reachable without tombstones.
func (d *Directory) deleteAt(i int) {
	mask := uint64(len(d.slots) - 1)
	hole := uint64(i)
	j := hole
	for {
		j = (j + 1) & mask
		if !d.slots[j].full {
			break
		}
		// Move j into the hole unless that would lift it above its home
		// slot (cyclic distance test).
		k := d.home(d.slots[j].addr)
		if (j-k)&mask >= (j-hole)&mask {
			d.slots[hole] = d.slots[j]
			hole = j
		}
	}
	d.slots[hole] = entry{}
	d.count--
}

// Stats returns a snapshot of the protocol counters.
func (d *Directory) Stats() Stats { return d.stats }

// Entries returns the number of tracked blocks (for leak tests).
func (d *Directory) Entries() int { return d.count }

// StateOf reports core's state for addr.
func (d *Directory) StateOf(addr trace.Addr, core int) State {
	i, ok := d.find(addr)
	if !ok {
		return Invalid
	}
	e := &d.slots[i]
	if int(e.owner) == core {
		return State(e.ownerState)
	}
	if e.sharers.Has(core) {
		return Shared
	}
	return Invalid
}

// OnReadMiss handles core's L1 read miss for addr.
func (d *Directory) OnReadMiss(core int, addr trace.Addr) Response {
	d.stats.ReadMisses++
	e := d.get(addr)
	switch {
	case e.owner >= 0 && int(e.owner) == core:
		// The directory thought this core already had the line (e.g. the
		// L1 silently dropped a clean E copy). Refresh it.
		return Response{Source: FromL2, NewState: State(e.ownerState)}
	case e.owner >= 0:
		// A peer holds M/O/E: it supplies the data. M and O degrade to O
		// (dirty data stays on chip); E degrades to S.
		d.stats.CacheTransfers++
		if State(e.ownerState) == Exclusive {
			e.sharers = e.sharers.With(int(e.owner))
			e.owner = -1
			e.sharers = e.sharers.With(core)
			return Response{Source: FromCache, NewState: Shared}
		}
		e.ownerState = uint8(Owned)
		e.sharers = e.sharers.With(core)
		return Response{Source: FromCache, NewState: Shared}
	case e.sharers != 0:
		e.sharers = e.sharers.With(core)
		return Response{Source: FromL2, NewState: Shared}
	default:
		// Sole copy: exclusive.
		e.owner = int8(core)
		e.ownerState = uint8(Exclusive)
		return Response{Source: FromL2, NewState: Exclusive}
	}
}

// OnWriteMiss handles core's L1 write miss (or write to a block it does not
// hold in a writable state): all peer copies are invalidated and the
// requester takes the line in M.
func (d *Directory) OnWriteMiss(core int, addr trace.Addr) Response {
	d.stats.WriteMisses++
	e := d.get(addr)
	resp := Response{Source: FromL2, NewState: Modified}
	if e.owner >= 0 && int(e.owner) != core {
		resp.Invalidated = resp.Invalidated.With(int(e.owner))
		resp.Source = FromCache
		d.stats.CacheTransfers++
		if State(e.ownerState) == Modified || State(e.ownerState) == Owned {
			// Dirty data moves to the requester; no L2 writeback needed.
			resp.PeerWriteback = false
		}
	}
	resp.Invalidated |= e.sharers &^ (1 << core)
	resp.Invalidations = resp.Invalidated.Count()
	d.stats.Invalidations += uint64(resp.Invalidations)
	e.owner = int8(core)
	e.ownerState = uint8(Modified)
	e.sharers = 0
	return resp
}

// OnUpgrade handles a write hit on a Shared copy: peers invalidate, the
// writer moves to M without a data transfer.
func (d *Directory) OnUpgrade(core int, addr trace.Addr) Response {
	d.stats.Upgrades++
	e := d.get(addr)
	resp := Response{Source: FromL2, NewState: Modified}
	if e.owner >= 0 && int(e.owner) != core {
		resp.Invalidated = resp.Invalidated.With(int(e.owner))
	}
	resp.Invalidated |= e.sharers &^ (1 << core)
	resp.Invalidations = resp.Invalidated.Count()
	d.stats.Invalidations += uint64(resp.Invalidations)
	e.owner = int8(core)
	e.ownerState = uint8(Modified)
	e.sharers = 0
	return resp
}

// OnWriteHitOwner promotes an E copy to M on a write hit (silent upgrade in
// hardware; the directory records it so writeback accounting stays right).
func (d *Directory) OnWriteHitOwner(core int, addr trace.Addr) {
	i, ok := d.find(addr)
	if !ok || int(d.slots[i].owner) != core {
		return
	}
	if State(d.slots[i].ownerState) == Exclusive {
		d.slots[i].ownerState = uint8(Modified)
	}
}

// OnL1Evict removes core's copy. It returns true when the eviction must
// write dirty data back to the L2 (the copy was M or O).
func (d *Directory) OnL1Evict(core int, addr trace.Addr) (writeback bool) {
	i, ok := d.find(addr)
	if !ok {
		return false
	}
	e := &d.slots[i]
	if int(e.owner) == core {
		writeback = State(e.ownerState) == Modified || State(e.ownerState) == Owned
		if writeback {
			d.stats.Writebacks++
		}
		e.owner = -1
		e.ownerState = uint8(Invalid)
	} else {
		e.sharers &^= 1 << core
	}
	if e.empty() {
		d.deleteAt(i)
	}
	return writeback
}

// OnL2EvictAppend enforces inclusion: every L1 copy of addr is
// invalidated. It appends the cores that lost a copy (owner first, then
// sharers in core order) to dst, returns it, and reports whether dirty data
// must be written back to memory. Passing a buffer truncated to zero length
// makes the back-invalidation path allocation-free once the buffer has
// grown to the sharer high-water mark.
func (d *Directory) OnL2EvictAppend(addr trace.Addr, dst []int) (invalidated []int, writeback bool) {
	i, ok := d.find(addr)
	if !ok {
		return dst, false
	}
	e := &d.slots[i]
	n := 0
	if e.owner >= 0 {
		dst = append(dst, int(e.owner))
		n++
		if State(e.ownerState) == Modified || State(e.ownerState) == Owned {
			writeback = true
			d.stats.Writebacks++
		}
	}
	for c := 0; c < cache.MaxCores; c++ {
		if e.sharers.Has(c) {
			dst = append(dst, c)
			n++
		}
	}
	d.stats.Invalidations += uint64(n)
	d.deleteAt(i)
	return dst, writeback
}
