package core

import (
	"fmt"

	"bankaware/internal/cache"
	"bankaware/internal/nuca"
)

// UnrestrictedPolicy runs the idealised UCP-style allocator inside the
// detailed simulator. The paper evaluates Unrestricted only through MSA
// projection (Fig. 7) because its allocations are not physically
// realisable on the banked DNUCA — this policy makes that concrete: the way
// counts come from the unrestricted algorithm and are then forced onto the
// banks with none of the Section III.B rules (Center banks split between
// arbitrary cores, non-adjacent Local sharing). It exists as an upper
// reference for the detailed experiments, not as a buildable design.
type UnrestrictedPolicy struct {
	Config UnrestrictedConfig
	// Hysteresis as in BankAwarePolicy.
	Hysteresis float64
	prev       *Allocation
	prevWays   []int
}

// NewUnrestrictedPolicy returns the reference policy with baseline
// parameters.
func NewUnrestrictedPolicy() *UnrestrictedPolicy {
	return &UnrestrictedPolicy{Config: DefaultUnrestricted(), Hysteresis: 0.03}
}

// Name implements Policy.
func (*UnrestrictedPolicy) Name() string { return "Unrestricted" }

// Clone implements Cloner: fresh instance, no remembered allocation.
func (p *UnrestrictedPolicy) Clone() Policy {
	return &UnrestrictedPolicy{Config: p.Config, Hysteresis: p.Hysteresis}
}

// Allocate implements Policy: the healthy machine is the degraded path with
// an empty fault set.
func (p *UnrestrictedPolicy) Allocate(curves []MissCurve) (*Allocation, error) {
	return p.AllocateDegraded(curves, 0)
}

// UnrestrictedAllocation packs arbitrary per-core way counts onto the banks
// that survive failed with no physical rules: each core first claims ways
// in its Local bank, then in the nearest banks with free ways, splitting
// banks freely. Failed banks offer no capacity, and the way counts must sum
// to exactly the surviving ways.
func UnrestrictedAllocation(ways []int, failed nuca.BankSet) (*Allocation, error) {
	if len(ways) != nuca.NumCores {
		return nil, fmt.Errorf("core: need %d way counts, got %d", nuca.NumCores, len(ways))
	}
	total := 0
	for c, w := range ways {
		if w < 1 {
			return nil, fmt.Errorf("core: core %d assigned %d ways", c, w)
		}
		total += w
	}
	if total != failed.SurvivingWays() {
		return nil, fmt.Errorf("core: way counts sum to %d, want %d", total, failed.SurvivingWays())
	}
	a := &Allocation{Failed: failed}
	free := [nuca.NumBanks]int{}
	for b := range free {
		if !failed.Has(b) {
			free[b] = nuca.WaysPerBank
		}
	}
	claim := func(c, b, n int) {
		start := nuca.WaysPerBank - free[b]
		for w := start; w < start+n; w++ {
			a.WayOwners[b][w] = cache.OwnerMask(0).With(c)
		}
		free[b] -= n
	}
	need := append([]int(nil), ways...)
	// Surviving Local banks first.
	for c := 0; c < nuca.NumCores; c++ {
		lb := nuca.LocalBankOf(c)
		n := need[c]
		if n > free[lb] {
			n = free[lb]
		}
		if n > 0 {
			claim(c, lb, n)
			need[c] -= n
		}
	}
	// Then nearest banks with any free capacity.
	for c := 0; c < nuca.NumCores; c++ {
		for need[c] > 0 {
			best, bestLat := -1, int64(1<<62)
			for b := 0; b < nuca.NumBanks; b++ {
				if free[b] == 0 {
					continue
				}
				if l := nuca.Latency(c, b); l < bestLat {
					best, bestLat = b, l
				}
			}
			if best < 0 {
				return nil, fmt.Errorf("core: ran out of bank capacity placing core %d", c)
			}
			n := need[c]
			if n > free[best] {
				n = free[best]
			}
			claim(c, best, n)
			need[c] -= n
		}
	}
	a.recount()
	return a, nil
}
