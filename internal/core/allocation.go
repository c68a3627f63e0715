package core

import (
	"fmt"
	"strings"

	"bankaware/internal/cache"
	"bankaware/internal/nuca"
)

// Allocation is a physical partition of the 16-bank DNUCA L2: an owner mask
// for every way of every bank, plus the per-core way totals it implies. It
// is what an epoch controller installs into the bank fabric.
type Allocation struct {
	// WayOwners[bank][way] is the set of cores allowed to allocate into
	// that way. The partitioning policies assign each way to exactly one
	// core; the No-partition policy sets all ways to all cores.
	WayOwners [nuca.NumBanks][nuca.WaysPerBank]cache.OwnerMask
	// Ways[c] is core c's total way count across all banks (for a shared
	// way, every sharer counts it — only No-partition shares ways).
	Ways [nuca.NumCores]int
	// Hashed selects AddressHash placement across the banks instead of
	// Parallel lookup within each core's partition. The non-partitioned
	// shared baseline uses it: a real shared banked L2 statically hashes
	// lines across banks (POWER4/5-style), giving each address one 8-way
	// set contested by every core — it does not search all banks for every
	// line. Partitioned allocations keep the paper's Parallel aggregation.
	Hashed bool
	// Failed marks banks that are out of service (fused off, thermally
	// killed). A degraded allocation assigns no capacity in a failed bank:
	// every way there has the zero owner mask. The empty set is the
	// healthy machine.
	Failed nuca.BankSet
}

// recount recomputes Ways from WayOwners.
func (a *Allocation) recount() {
	for c := range a.Ways {
		a.Ways[c] = 0
	}
	for b := 0; b < nuca.NumBanks; b++ {
		for w := 0; w < nuca.WaysPerBank; w++ {
			for c := 0; c < nuca.NumCores; c++ {
				if a.WayOwners[b][w].Has(c) {
					a.Ways[c]++
				}
			}
		}
	}
}

// BanksOf returns the banks in which core owns at least one way, in bank
// order.
func (a *Allocation) BanksOf(core int) []int {
	var banks []int
	for b := 0; b < nuca.NumBanks; b++ {
		for w := 0; w < nuca.WaysPerBank; w++ {
			if a.WayOwners[b][w].Has(core) {
				banks = append(banks, b)
				break
			}
		}
	}
	return banks
}

// WaysIn returns how many ways core owns in bank b.
func (a *Allocation) WaysIn(core, b int) int {
	n := 0
	for w := 0; w < nuca.WaysPerBank; w++ {
		if a.WayOwners[b][w].Has(core) {
			n++
		}
	}
	return n
}

// Validate checks the structural invariants every partitioned allocation
// must satisfy (called by tests and the epoch controller):
//
//  1. every way of a surviving bank has at least one owner (no surviving
//     capacity is wasted), and no way of a Failed bank has any;
//  2. every core owns at least one way somewhere (it can always allocate);
//  3. the Ways totals match the masks.
//
// Policy-specific rules (single ownership, bank-awareness) are checked by
// ValidateBankAware.
func (a *Allocation) Validate() error {
	for b := 0; b < nuca.NumBanks; b++ {
		for w := 0; w < nuca.WaysPerBank; w++ {
			switch {
			case a.Failed.Has(b) && a.WayOwners[b][w] != 0:
				return fmt.Errorf("core: failed bank %d way %d has owners", b, w)
			case !a.Failed.Has(b) && a.WayOwners[b][w] == 0:
				return fmt.Errorf("core: bank %d way %d has no owner", b, w)
			}
		}
	}
	var want Allocation
	want.WayOwners = a.WayOwners
	want.recount()
	for c := 0; c < nuca.NumCores; c++ {
		if a.Ways[c] != want.Ways[c] {
			return fmt.Errorf("core: core %d claims %d ways, masks say %d", c, a.Ways[c], want.Ways[c])
		}
		if want.Ways[c] == 0 {
			return fmt.Errorf("core: core %d owns no ways", c)
		}
	}
	return nil
}

// ValidateBankAware additionally enforces the Bank-aware policy rules of
// Section III.B:
//
//  1. each way belongs to exactly one core;
//  2. Center banks are wholly owned by a single core (Rule 1);
//  3. a core owning Center-bank capacity owns its full Local bank (Rule 2);
//  4. Local banks are shared only between the adjacent core pair (Rule 3),
//     and only Local banks may be shared at way granularity.
func (a *Allocation) ValidateBankAware() error {
	if err := a.Validate(); err != nil {
		return err
	}
	for b := 0; b < nuca.NumBanks; b++ {
		if a.Failed.Has(b) {
			continue // validated empty by Validate
		}
		owners := map[int]bool{}
		for w := 0; w < nuca.WaysPerBank; w++ {
			m := a.WayOwners[b][w]
			if m.Count() != 1 {
				return fmt.Errorf("core: bank %d way %d owned by %d cores, want exactly 1", b, w, m.Count())
			}
			for c := 0; c < nuca.NumCores; c++ {
				if m.Has(c) {
					owners[c] = true
				}
			}
		}
		switch nuca.BankKind(b) {
		case nuca.Center:
			if len(owners) != 1 {
				return fmt.Errorf("core: Center bank %d split across %d cores (Rule 1)", b, len(owners))
			}
		case nuca.Local:
			if len(owners) > 2 {
				return fmt.Errorf("core: Local bank %d split across %d cores", b, len(owners))
			}
			adj := nuca.CoreOfLocalBank(b)
			for c := range owners {
				if c != adj && !nuca.Adjacent(c, adj) {
					return fmt.Errorf("core: Local bank %d (core %d's) owned by non-adjacent core %d (Rule 3)", b, adj, c)
				}
			}
		}
	}
	// Rule 2: center-bank owners hold their whole local bank. A core whose
	// Local bank failed cannot satisfy it; the rule applies to the
	// surviving set.
	for c := 0; c < nuca.NumCores; c++ {
		if a.Failed.Has(nuca.LocalBankOf(c)) {
			continue
		}
		hasCenter := false
		for b := nuca.NumCores; b < nuca.NumBanks; b++ {
			if a.WaysIn(c, b) > 0 {
				hasCenter = true
				break
			}
		}
		if hasCenter && a.WaysIn(c, nuca.LocalBankOf(c)) != nuca.WaysPerBank {
			return fmt.Errorf("core: core %d owns Center capacity but only %d/%d of its Local bank (Rule 2)",
				c, a.WaysIn(c, nuca.LocalBankOf(c)), nuca.WaysPerBank)
		}
	}
	return nil
}

// AllocationChange describes one core's assignment differing between two
// allocations: its way total and bank list before and after. Old fields are
// zero/nil when there was no previous allocation (the initial install).
type AllocationChange struct {
	Core     int
	OldWays  int
	NewWays  int
	OldBanks []int
	NewBanks []int
}

// DiffFrom compares a against a previous allocation and returns one change
// per core whose way total or bank set differs, in core order. old may be
// nil (initial allocation), in which case every core is reported as a
// change from nothing. Two allocations that merely permute way indices
// within the same banks are considered equal — the observable partition is
// per-core capacity and placement, not mask layout.
func (a *Allocation) DiffFrom(old *Allocation) []AllocationChange {
	var changes []AllocationChange
	for c := 0; c < nuca.NumCores; c++ {
		ch := AllocationChange{Core: c, NewWays: a.Ways[c], NewBanks: a.BanksOf(c)}
		if old != nil {
			ch.OldWays = old.Ways[c]
			ch.OldBanks = old.BanksOf(c)
			if ch.OldWays == ch.NewWays && equalBanks(ch.OldBanks, ch.NewBanks) && sameWaysPerBank(a, old, c) {
				continue
			}
		}
		changes = append(changes, ch)
	}
	return changes
}

func equalBanks(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameWaysPerBank(a, old *Allocation, core int) bool {
	for b := 0; b < nuca.NumBanks; b++ {
		if a.WaysIn(core, b) != old.WaysIn(core, b) {
			return false
		}
	}
	return true
}

// String renders the allocation in the style of Fig. 5: one line per core
// with its way total and bank list.
func (a *Allocation) String() string {
	var sb strings.Builder
	for c := 0; c < nuca.NumCores; c++ {
		fmt.Fprintf(&sb, "core %d: %3d ways [", c, a.Ways[c])
		first := true
		for _, b := range a.BanksOf(c) {
			if !first {
				sb.WriteString(" ")
			}
			first = false
			fmt.Fprintf(&sb, "%s%d:%d", bankTag(b), b, a.WaysIn(c, b))
		}
		sb.WriteString("]\n")
	}
	return sb.String()
}

func bankTag(b int) string {
	if nuca.BankKind(b) == nuca.Local {
		return "L"
	}
	return "C"
}

// EqualAllocation builds the static even split the paper calls
// Equal-partitions (private 2 MB per core) over the banks that survive
// failed: each core keeps its surviving Local bank, then the surviving
// Center banks are dealt whole, one at a time, to the currently
// least-provisioned core (ties to the lower id, nearest free bank first).
// On the healthy machine every core thus owns its Local bank plus the
// nearest free Center bank — 16 ways each; around failed banks the split
// stays as even as whole-bank granularity allows. Errors when some core
// cannot be served (its Local bank dead and no Center bank left for it).
func EqualAllocation(failed nuca.BankSet) (*Allocation, error) {
	a := &Allocation{Failed: failed}
	var ways [nuca.NumCores]int
	for c := 0; c < nuca.NumCores; c++ {
		lb := nuca.LocalBankOf(c)
		if failed.Has(lb) {
			continue
		}
		for w := 0; w < nuca.WaysPerBank; w++ {
			a.WayOwners[lb][w] = cache.OwnerMask(0).With(c)
		}
		ways[c] = nuca.WaysPerBank
	}
	nCenter := 0
	for b := nuca.NumCores; b < nuca.NumBanks; b++ {
		if !failed.Has(b) {
			nCenter++
		}
	}
	taken := [nuca.NumBanks]bool{}
	for k := 0; k < nCenter; k++ {
		core := 0
		for c := 1; c < nuca.NumCores; c++ {
			if ways[c] < ways[core] {
				core = c
			}
		}
		b := nearestFreeCenter(core, &taken, failed)
		taken[b] = true
		for w := 0; w < nuca.WaysPerBank; w++ {
			a.WayOwners[b][w] = cache.OwnerMask(0).With(core)
		}
		ways[core] += nuca.WaysPerBank
	}
	a.recount()
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("core: equal-partitions cannot serve fault set %v: %w", failed, err)
	}
	return a, nil
}

// NoPartitionAllocation builds the fully shared configuration over the
// banks that survive failed: hashed placement across them, and every way
// of every one allocatable by every core (plain shared LRU).
func NoPartitionAllocation(failed nuca.BankSet) (*Allocation, error) {
	if failed.Count() >= nuca.NumBanks {
		return nil, fmt.Errorf("core: no surviving banks in %v", failed)
	}
	a := &Allocation{Hashed: true, Failed: failed}
	all := cache.AllCores(nuca.NumCores)
	for b := 0; b < nuca.NumBanks; b++ {
		if failed.Has(b) {
			continue
		}
		for w := 0; w < nuca.WaysPerBank; w++ {
			a.WayOwners[b][w] = all
		}
	}
	a.recount()
	return a, nil
}

// nearestFreeCenter returns the unclaimed surviving Center bank with the
// lowest access latency from core (ties to the lower bank id).
func nearestFreeCenter(core int, taken *[nuca.NumBanks]bool, failed nuca.BankSet) int {
	best, bestLat := -1, int64(1<<62)
	for b := nuca.NumCores; b < nuca.NumBanks; b++ {
		if taken[b] || failed.Has(b) {
			continue
		}
		if l := nuca.Latency(core, b); l < bestLat {
			best, bestLat = b, l
		}
	}
	if best < 0 {
		panic("core: no free Center bank")
	}
	return best
}
