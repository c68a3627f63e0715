// Package cpu provides the core timing model of the full-system simulator:
// a compact bounded-memory-level-parallelism approximation of the paper's
// 4 GHz, 4-wide, 30-stage out-of-order core with a 128-entry reorder buffer
// and 16 outstanding requests per core (Table I).
//
// The model charges 1/Width cycles per instruction and lets the core run
// past outstanding L1 misses — overlapping their latency, as an
// out-of-order window does — until either structural limit binds:
//
//   - MSHR limit: at most MSHRs fills may be in flight; the next miss waits
//     for the earliest completion.
//   - ROB limit: the core cannot issue more than ROBEntries instructions
//     beyond the oldest incomplete memory access, because that access
//     blocks retirement; the core waits for it.
//
// This reproduces what the paper's evaluation depends on: miss latency that
// is partially hidden, with exposure growing as misses cluster — so miss
// reductions translate into smaller (and workload-dependent) CPI
// reductions, the Fig. 8 vs Fig. 9 relationship.
package cpu

import "fmt"

// Config describes the core.
type Config struct {
	// Width is the issue/retire width in instructions per cycle (4).
	Width int
	// ROBEntries is the reorder-buffer capacity (128).
	ROBEntries int
	// MSHRs is the maximum number of outstanding fills (16).
	MSHRs int
	// BranchMPKI is the branch misprediction rate in mispredictions per
	// 1000 instructions. Zero disables front-end modelling; the knob lets
	// the Table I 30-stage pipeline's mispredict cost enter CPI as a
	// deterministic analytic charge.
	BranchMPKI float64
	// MispredictPenalty is the pipeline-refill cost of one misprediction
	// in cycles (≈ front-end depth of the 30-stage pipeline).
	MispredictPenalty int64
}

// DefaultConfig returns the paper's Table I core parameters.
func DefaultConfig() Config {
	return Config{Width: 4, ROBEntries: 128, MSHRs: 16}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Width < 1 {
		return fmt.Errorf("cpu: width must be >= 1, got %d", c.Width)
	}
	if c.ROBEntries < 1 {
		return fmt.Errorf("cpu: ROB must be >= 1 entry, got %d", c.ROBEntries)
	}
	if c.MSHRs < 1 {
		return fmt.Errorf("cpu: MSHRs must be >= 1, got %d", c.MSHRs)
	}
	if !(c.BranchMPKI >= 0 && c.BranchMPKI <= 1000) { // rejects NaN too
		return fmt.Errorf("cpu: branch MPKI %v outside [0,1000]", c.BranchMPKI)
	}
	if c.MispredictPenalty < 0 {
		return fmt.Errorf("cpu: negative mispredict penalty")
	}
	if c.BranchMPKI > 0 && c.MispredictPenalty == 0 {
		return fmt.Errorf("cpu: branch MPKI set with zero penalty")
	}
	return nil
}

// Stats aggregates the core's timing behaviour.
type Stats struct {
	Instructions uint64
	Cycles       int64
	MemAccesses  uint64
	Fills        uint64 // accesses that left the L1 (registered outstanding)
	MSHRStall    int64  // cycles stalled on the MSHR limit
	ROBStall     int64  // cycles stalled on the ROB-age limit
	BranchStall  int64  // cycles charged to branch mispredictions
}

// CPI returns cycles per instruction.
func (s Stats) CPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instructions)
}

type inflight struct {
	instr uint64
	done  int64
}

// Core is one core's timing state. Not safe for concurrent use.
type Core struct {
	cfg  Config
	id   int
	now  int64
	inst uint64
	frac int
	// outstanding fills in program (issue) order; completions may be
	// out of order, so entries are purged whenever they finish.
	outstanding []inflight
	// nextDone is the earliest completion among outstanding (meaningless
	// while it is empty): before it, no fill can have completed.
	nextDone int64
	// branchDebt accumulates fractional expected mispredictions so the
	// analytic charge stays exact over any instruction count.
	branchDebt float64
	stats      Stats
}

// New builds a core timing model.
func New(id int, cfg Config) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Core{cfg: cfg, id: id}, nil
}

// MustNew is New that panics on invalid configuration.
func MustNew(id int, cfg Config) *Core {
	c, err := New(id, cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// ID returns the core id.
func (c *Core) ID() int { return c.id }

// Now returns the core's current cycle.
func (c *Core) Now() int64 { return c.now }

// Instructions returns retired instructions so far.
func (c *Core) Instructions() uint64 { return c.inst }

// Outstanding returns the number of fills in flight.
func (c *Core) Outstanding() int { return len(c.outstanding) }

// Stats returns a snapshot including up-to-date cycle and instruction
// counts.
func (c *Core) Stats() Stats {
	s := c.stats
	s.Instructions = c.inst
	s.Cycles = c.now
	return s
}

// retireCompleted drops every outstanding fill that has completed by `now`
// (MSHRs free on completion, in any order).
func (c *Core) retireCompleted() {
	if len(c.outstanding) == 0 || c.nextDone > c.now {
		return
	}
	kept := 0
	for _, f := range c.outstanding {
		if f.done > c.now {
			if kept == 0 || f.done < c.nextDone {
				c.nextDone = f.done
			}
			c.outstanding[kept] = f
			kept++
		}
	}
	c.outstanding = c.outstanding[:kept]
}

// BeginAccess consumes `gap` non-memory instructions plus the memory
// instruction itself, advances time past any structural stalls, and returns
// the cycle at which the memory access issues.
func (c *Core) BeginAccess(gap int) int64 {
	if gap < 0 {
		gap = 0
	}
	n := gap + 1
	c.inst += uint64(n)
	c.stats.MemAccesses++
	c.frac += n
	c.now += int64(c.frac / c.cfg.Width)
	c.frac %= c.cfg.Width

	if c.cfg.BranchMPKI > 0 {
		c.branchDebt += float64(n) * c.cfg.BranchMPKI / 1000
		if c.branchDebt >= 1 {
			flushes := int64(c.branchDebt)
			c.branchDebt -= float64(flushes)
			penalty := flushes * c.cfg.MispredictPenalty
			c.now += penalty
			c.stats.BranchStall += penalty
		}
	}

	c.retireCompleted()

	// ROB-age limit: the oldest incomplete access blocks retirement; the
	// window cannot slide more than ROBEntries past it.
	for len(c.outstanding) > 0 && c.inst-c.outstanding[0].instr >= uint64(c.cfg.ROBEntries) {
		wait := c.outstanding[0].done
		if wait > c.now {
			c.stats.ROBStall += wait - c.now
			c.now = wait
		}
		c.retireCompleted()
	}

	// MSHR limit: wait for the earliest completion to free an entry.
	for len(c.outstanding) >= c.cfg.MSHRs {
		if earliest := c.nextDone; earliest > c.now {
			c.stats.MSHRStall += earliest - c.now
			c.now = earliest
		}
		c.retireCompleted()
	}
	return c.now
}

// RecordFill registers that the access issued by the last BeginAccess
// missed the L1 and its data returns at cycle `done`. L1 hits simply do not
// call it: their latency is hidden by the out-of-order window.
func (c *Core) RecordFill(done int64) {
	if done < c.now {
		done = c.now
	}
	c.stats.Fills++
	if len(c.outstanding) == 0 || done < c.nextDone {
		c.nextDone = done
	}
	c.outstanding = append(c.outstanding, inflight{instr: c.inst, done: done})
}

// Drain waits for every outstanding fill, advancing time to the last
// completion. Call at the end of a measurement interval.
func (c *Core) Drain() {
	for _, f := range c.outstanding {
		if f.done > c.now {
			c.now = f.done
		}
	}
	c.outstanding = c.outstanding[:0]
}

// CPI returns the core's cycles per instruction so far.
func (c *Core) CPI() float64 { return c.Stats().CPI() }
