package core

import "fmt"

// Policy computes a physical L2 allocation from per-core miss curves. The
// epoch controller invokes the active policy at every repartitioning epoch
// (Section IV: 100M-cycle epochs).
//
// A Policy instance is single-simulation state: the dynamic policies keep
// the previous epoch's allocation for placement affinity and hysteresis, so
// one instance must never be shared between concurrently running systems.
// Hand each parallel simulation its own instance — either construct a fresh
// one per run or derive one from a prototype with ClonePolicy.
type Policy interface {
	// Name identifies the policy in reports ("Bank-aware", ...).
	Name() string
	// Allocate maps the cores' projected miss curves to an allocation.
	// Static policies ignore the curves.
	Allocate(curves []MissCurve) (*Allocation, error)
}

// Cloner is implemented by policies that carry per-simulation state and can
// produce a fresh instance with the same configuration but none of the
// accumulated state.
type Cloner interface {
	// Clone returns an unstarted policy with this one's parameters.
	Clone() Policy
}

// ClonePolicy returns a policy safe to hand to another simulation: a fresh
// clone when p is stateful (implements Cloner), or p itself when it is a
// stateless value like the static baselines.
func ClonePolicy(p Policy) Policy {
	if c, ok := p.(Cloner); ok {
		return c.Clone()
	}
	return p
}

// NoPartitionPolicy is the paper's "No-partitions" baseline: one shared LRU
// cache, every core may allocate anywhere.
type NoPartitionPolicy struct{}

// Name implements Policy.
func (NoPartitionPolicy) Name() string { return "No-partitions" }

// Allocate implements Policy.
func (NoPartitionPolicy) Allocate([]MissCurve) (*Allocation, error) {
	return NoPartitionAllocation(0)
}

// EqualPolicy is the paper's "Equal-partitions" baseline: a static, even,
// private split (2 MB = 16 ways per core).
type EqualPolicy struct{}

// Name implements Policy.
func (EqualPolicy) Name() string { return "Equal-partitions" }

// Allocate implements Policy.
func (EqualPolicy) Allocate([]MissCurve) (*Allocation, error) {
	return EqualAllocation(0)
}

// BankAwarePolicy is the paper's contribution, wrapping the Fig. 6
// algorithm. It remembers the previous epoch's allocation for two
// stabilisation mechanisms a real controller needs (the paper's 100M-cycle
// epochs get them implicitly from near-identical curves):
//
//   - placement affinity: a core keeping its way count keeps its banks and
//     therefore its cached data;
//   - hysteresis: the new allocation replaces the old one only when the
//     profiler curves project at least Hysteresis (fractional) fewer
//     misses, so near-tie optima do not flip-flop and destroy working sets
//     every epoch.
type BankAwarePolicy struct {
	Config BankAwareConfig
	// Hysteresis is the minimum fractional projected-miss improvement
	// required to adopt a different allocation (default 0.03).
	Hysteresis float64
	prev       *Allocation
}

// NewBankAwarePolicy returns the policy with the paper's default
// parameters.
func NewBankAwarePolicy() *BankAwarePolicy {
	return &BankAwarePolicy{Config: DefaultBankAware(), Hysteresis: 0.03}
}

// Name implements Policy.
func (*BankAwarePolicy) Name() string { return "Bank-aware" }

// Clone implements Cloner: same Config and Hysteresis, no remembered
// allocation, so parallel simulations never share the prev pointer.
func (p *BankAwarePolicy) Clone() Policy {
	return &BankAwarePolicy{Config: p.Config, Hysteresis: p.Hysteresis}
}

// Allocate implements Policy: the healthy machine is the degraded path with
// an empty fault set.
func (p *BankAwarePolicy) Allocate(curves []MissCurve) (*Allocation, error) {
	return p.AllocateDegraded(curves, 0)
}

// PolicyByName resolves the CLI names used across cmd/ tools.
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "none", "no-partitions", "shared":
		return NoPartitionPolicy{}, nil
	case "equal", "equal-partitions", "private":
		return EqualPolicy{}, nil
	case "bankaware", "bank-aware":
		return NewBankAwarePolicy(), nil
	case "bandwidth", "bandwidth-aware":
		return NewBandwidthAwarePolicy(), nil
	case "unrestricted":
		return NewUnrestrictedPolicy(), nil
	default:
		return nil, fmt.Errorf("core: unknown policy %q (want none|equal|bankaware|bandwidth|unrestricted)", name)
	}
}
