package core

import "bankaware/internal/nuca"

// FeedbackPolicy is implemented by policies that accept memory-subsystem
// feedback from the simulator before each allocation. The epoch controller
// calls SetFeedback with one weight per core, then Allocate as usual.
type FeedbackPolicy interface {
	Policy
	// SetFeedback installs per-core miss-cost weights for the next
	// allocation. A weight of 1 means a miss costs this core the baseline
	// amount; higher weights mark cores whose misses are amplified by
	// memory-subsystem queueing.
	SetFeedback(weights []float64)
}

// BandwidthAwarePolicy extends the Bank-aware scheme in the direction of
// the authors' follow-up work ("A Bandwidth-aware Memory-subsystem Resource
// Management...", HPCA 2010): capacity is allocated not by raw miss counts
// but by miss *cost*. When the DRAM channels saturate, every miss of the
// congested cores costs extra queueing cycles, so relieving them buys more
// performance per way than the same miss count on an uncongested core. The
// policy scales each core's miss curve by its measured miss-cost weight
// before running the unchanged Fig. 6 bank-aware allocator, preserving all
// physical placement rules.
type BandwidthAwarePolicy struct {
	// BankAwarePolicy allocates the scaled curves: its Config, Hysteresis
	// and remembered allocation are this policy's.
	BankAwarePolicy

	weights [nuca.NumCores]float64
}

// NewBandwidthAwarePolicy returns the extension with the paper's allocator
// parameters and neutral weights.
func NewBandwidthAwarePolicy() *BandwidthAwarePolicy {
	p := &BandwidthAwarePolicy{BankAwarePolicy: *NewBankAwarePolicy()}
	for i := range p.weights {
		p.weights[i] = 1
	}
	return p
}

// Name implements Policy.
func (*BandwidthAwarePolicy) Name() string { return "Bandwidth-aware" }

// Clone implements Cloner: parameters and current weights carry over, the
// remembered allocation does not.
func (p *BandwidthAwarePolicy) Clone() Policy {
	return &BandwidthAwarePolicy{
		BankAwarePolicy: BankAwarePolicy{Config: p.Config, Hysteresis: p.Hysteresis},
		weights:         p.weights,
	}
}

// SetFeedback implements FeedbackPolicy. Weights are clamped to [0.25, 4]
// so one noisy epoch cannot invert the allocation; missing entries keep
// their previous value.
func (p *BandwidthAwarePolicy) SetFeedback(weights []float64) {
	for i := 0; i < len(weights) && i < nuca.NumCores; i++ {
		w := weights[i]
		if w <= 0 {
			continue
		}
		if w < 0.25 {
			w = 0.25
		}
		if w > 4 {
			w = 4
		}
		p.weights[i] = w
	}
}

// Weights returns the active per-core weights (for inspection/tests).
func (p *BandwidthAwarePolicy) Weights() [nuca.NumCores]float64 { return p.weights }

// Allocate implements Policy: scale, then the bank-aware allocation — the
// healthy machine is the degraded path with an empty fault set.
func (p *BandwidthAwarePolicy) Allocate(curves []MissCurve) (*Allocation, error) {
	return p.AllocateDegraded(curves, 0)
}
