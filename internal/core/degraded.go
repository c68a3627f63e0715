package core

import (
	"fmt"

	"bankaware/internal/cache"
	"bankaware/internal/nuca"
)

// DegradedPolicy is implemented by policies that can re-partition around a
// set of failed banks. The epoch controller uses it when a fault plan marks
// banks dead; policies without the interface cannot run degraded and the
// simulator rejects the combination up front.
type DegradedPolicy interface {
	Policy
	// AllocateDegraded is Allocate on a machine whose failed banks carry no
	// capacity. The returned allocation has Failed set, assigns no way in
	// any failed bank, and distributes exactly the surviving capacity.
	AllocateDegraded(curves []MissCurve, failed nuca.BankSet) (*Allocation, error)
}

// AllocateDegraded implements DegradedPolicy for the shared baseline: the
// surviving banks stay one hashed shared pool.
func (NoPartitionPolicy) AllocateDegraded(_ []MissCurve, failed nuca.BankSet) (*Allocation, error) {
	return NoPartitionAllocationDegraded(failed)
}

// AllocateDegraded implements DegradedPolicy for the static even split.
func (EqualPolicy) AllocateDegraded(_ []MissCurve, failed nuca.BankSet) (*Allocation, error) {
	return EqualAllocationDegraded(failed)
}

// AllocateDegraded implements DegradedPolicy: the Fig. 6 algorithm over the
// surviving banks. A change in the fault set invalidates the remembered
// allocation — its placement refers to banks that may no longer exist, so
// neither hysteresis nor placement affinity may resurrect it.
func (p *BankAwarePolicy) AllocateDegraded(curves []MissCurve, failed nuca.BankSet) (*Allocation, error) {
	if p.prev != nil && p.prev.Failed != failed {
		p.prev = nil
	}
	a, err := BankAwareDegraded(curves, p.Config, p.prev, failed)
	if err != nil {
		return nil, err
	}
	if err := a.ValidateBankAware(); err != nil {
		return nil, fmt.Errorf("core: bank-aware produced invalid allocation: %w", err)
	}
	if p.prev != nil {
		newM, err1 := ProjectTotalMisses(curves, a.Ways[:])
		oldM, err2 := ProjectTotalMisses(curves, p.prev.Ways[:])
		if err1 == nil && err2 == nil && oldM <= newM*(1+p.Hysteresis) {
			return p.prev, nil
		}
	}
	p.prev = a
	return a, nil
}

// AllocateDegraded implements DegradedPolicy: miss-cost scaling, then
// BankAwarePolicy.AllocateDegraded on the scaled curves, so hysteresis
// compares projected miss costs.
func (p *BandwidthAwarePolicy) AllocateDegraded(curves []MissCurve, failed nuca.BankSet) (*Allocation, error) {
	if len(curves) != nuca.NumCores {
		return nil, fmt.Errorf("core: bandwidth-aware needs %d curves, got %d", nuca.NumCores, len(curves))
	}
	scaled := make([]MissCurve, len(curves))
	for i, c := range curves {
		s := make(MissCurve, len(c))
		for w, v := range c {
			s[w] = v * p.weights[i]
		}
		scaled[i] = s
	}
	return p.BankAwarePolicy.AllocateDegraded(scaled, failed)
}

// AllocateDegraded implements DegradedPolicy: the idealised allocator over
// the surviving capacity. Unrestricted has no banking rules to honour, so
// degradation is purely a clamp: TotalWays becomes the surviving way count
// and the arbitrary packing skips failed banks.
func (p *UnrestrictedPolicy) AllocateDegraded(curves []MissCurve, failed nuca.BankSet) (*Allocation, error) {
	if p.prev != nil && p.prev.Failed != failed {
		p.prev, p.prevWays = nil, nil
	}
	ways, err := UnrestrictedDegraded(curves, p.Config, failed)
	if err != nil {
		return nil, err
	}
	if p.prev != nil && p.prevWays != nil {
		newM, err1 := ProjectTotalMisses(curves, ways)
		oldM, err2 := ProjectTotalMisses(curves, p.prevWays)
		if err1 == nil && err2 == nil && oldM <= newM*(1+p.Hysteresis) {
			return p.prev, nil
		}
	}
	a, err := UnrestrictedAllocationDegraded(ways, failed)
	if err != nil {
		return nil, err
	}
	p.prev, p.prevWays = a, ways
	return a, nil
}

// UnrestrictedDegraded runs the idealised allocator with the capacity
// clamped to the surviving ways.
func UnrestrictedDegraded(curves []MissCurve, cfg UnrestrictedConfig, failed nuca.BankSet) ([]int, error) {
	if failed != 0 {
		cfg.TotalWays = failed.SurvivingWays()
		if cfg.MaxCoreWays > cfg.TotalWays {
			cfg.MaxCoreWays = cfg.TotalWays
		}
	}
	return Unrestricted(curves, cfg)
}

// EqualAllocationDegraded is EqualAllocation around failed banks: each core
// keeps its surviving Local bank, then the surviving Center banks are dealt
// whole, one at a time, to the currently least-provisioned core (ties to
// the lower id, nearest free bank first). The split stays as even as
// whole-bank granularity allows. Errors when some core cannot be served
// (its Local bank dead and no Center bank left for it).
func EqualAllocationDegraded(failed nuca.BankSet) (*Allocation, error) {
	if failed == 0 {
		return EqualAllocation(), nil
	}
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

// NoPartitionAllocationDegraded is the fully shared configuration over the
// surviving banks: hashed placement across them, every core allowed
// everywhere.
func NoPartitionAllocationDegraded(failed nuca.BankSet) (*Allocation, error) {
	if failed == 0 {
		return NoPartitionAllocation(), nil
	}
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
