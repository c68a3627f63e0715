package core

import (
	"fmt"

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
	return NoPartitionAllocation(failed)
}

// AllocateDegraded implements DegradedPolicy for the static even split.
func (EqualPolicy) AllocateDegraded(_ []MissCurve, failed nuca.BankSet) (*Allocation, error) {
	return EqualAllocation(failed)
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
	a, err := UnrestrictedAllocation(ways, failed)
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
