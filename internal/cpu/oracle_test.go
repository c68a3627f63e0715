package cpu

import (
	"math/rand/v2"
	"testing"
)

// refCore is the reference timing model Core must reproduce exactly: it
// scans every outstanding fill on every access and divides by the width.
type refCore struct {
	cfg         Config
	now         int64
	inst        uint64
	frac        int
	outstanding []inflight
	branchDebt  float64
	stats       Stats
}

func (c *refCore) Stats() Stats {
	s := c.stats
	s.Instructions = c.inst
	s.Cycles = c.now
	return s
}

func (c *refCore) retireCompleted() {
	kept := c.outstanding[:0]
	for _, f := range c.outstanding {
		if f.done > c.now {
			kept = append(kept, f)
		}
	}
	c.outstanding = kept
}

func (c *refCore) BeginAccess(gap int) int64 {
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
	for len(c.outstanding) > 0 && c.inst-c.outstanding[0].instr >= uint64(c.cfg.ROBEntries) {
		wait := c.outstanding[0].done
		if wait > c.now {
			c.stats.ROBStall += wait - c.now
			c.now = wait
		}
		c.retireCompleted()
	}
	for len(c.outstanding) >= c.cfg.MSHRs {
		earliest := c.outstanding[0].done
		for _, f := range c.outstanding[1:] {
			if f.done < earliest {
				earliest = f.done
			}
		}
		if earliest > c.now {
			c.stats.MSHRStall += earliest - c.now
			c.now = earliest
		}
		c.retireCompleted()
	}
	return c.now
}

func (c *refCore) RecordFill(done int64) {
	if done < c.now {
		done = c.now
	}
	c.stats.Fills++
	c.outstanding = append(c.outstanding, inflight{instr: c.inst, done: done})
}

func (c *refCore) Drain() {
	for _, f := range c.outstanding {
		if f.done > c.now {
			c.now = f.done
		}
	}
	c.outstanding = c.outstanding[:0]
}

// TestCoreMatchesReference drives Core and the reference through random
// BeginAccess, RecordFill and Drain sequences under ROB-, MSHR- and
// branch-bound configurations, power-of-two widths and others, and
// requires the same issue cycle from every access and the same Now,
// Instructions, Outstanding and Stats after every call.
func TestCoreMatchesReference(t *testing.T) {
	configs := []Config{
		DefaultConfig(),
		{Width: 3, ROBEntries: 32, MSHRs: 4},
		{Width: 1, ROBEntries: 8, MSHRs: 1},
		{Width: 8, ROBEntries: 192, MSHRs: 24, BranchMPKI: 5, MispredictPenalty: 30},
		{Width: 6, ROBEntries: 64, MSHRs: 10, BranchMPKI: 12.5, MispredictPenalty: 17},
		{Width: 2, ROBEntries: 1000, MSHRs: 2, BranchMPKI: 0.3, MispredictPenalty: 1},
	}
	for ci, cfg := range configs {
		for seed := uint64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewPCG(seed, uint64(ci)))
			got := MustNew(0, cfg)
			want := &refCore{cfg: cfg}
			// Each sequence mixes short (L2-hit-like) and long (DRAM-like)
			// fills at a seed-chosen density, so some runs keep the MSHRs
			// full and others leave them mostly idle.
			fillPct := 5 + rng.IntN(95)
			for step := 0; step < 3000; step++ {
				var op string
				switch r := rng.IntN(100); {
				case r < 1:
					op = "Drain"
					got.Drain()
					want.Drain()
				case r < fillPct:
					op = "RecordFill"
					lat := int64(rng.IntN(40)) - 5
					if rng.IntN(3) == 0 {
						lat = 150 + int64(rng.IntN(400))
					}
					got.RecordFill(got.Now() + lat)
					want.RecordFill(want.now + lat)
				default:
					op = "BeginAccess"
					gap := rng.IntN(24) - 2
					if rng.IntN(10) == 0 {
						gap = rng.IntN(400)
					}
					if g, w := got.BeginAccess(gap), want.BeginAccess(gap); g != w {
						t.Fatalf("config %+v seed %d step %d: BeginAccess(%d) issued at %d, reference %d", cfg, seed, step, gap, g, w)
					}
				}
				if got.Now() != want.now || got.Instructions() != want.inst ||
					got.Outstanding() != len(want.outstanding) || got.Stats() != want.Stats() {
					t.Fatalf("config %+v seed %d step %d after %s: now %d instr %d outstanding %d stats %+v, reference now %d instr %d outstanding %d stats %+v",
						cfg, seed, step, op, got.Now(), got.Instructions(), got.Outstanding(), got.Stats(),
						want.now, want.inst, len(want.outstanding), want.Stats())
				}
			}
		}
	}
}
