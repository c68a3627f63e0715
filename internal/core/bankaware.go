package core

import (
	"fmt"

	"bankaware/internal/cache"
	"bankaware/internal/nuca"
)

// BankAwareConfig parametrises the Bank-aware allocator.
type BankAwareConfig struct {
	// MinCoreWays is the floor every core keeps even under heavy
	// competition (2, matching the smallest Table III assignments).
	MinCoreWays int
	// MaxCoreWays caps one core's share. The paper's 9/16 cap is 72 ways =
	// its Local bank plus all eight Center banks.
	MaxCoreWays int
}

// DefaultBankAware returns the paper's parameters.
func DefaultBankAware() BankAwareConfig {
	return BankAwareConfig{MinCoreWays: 2, MaxCoreWays: 72}
}

// Validate reports configuration errors.
func (c BankAwareConfig) Validate() error {
	if c.MinCoreWays < 1 || c.MinCoreWays > nuca.WaysPerBank/2 {
		return fmt.Errorf("core: bank-aware min ways %d outside [1,%d]", c.MinCoreWays, nuca.WaysPerBank/2)
	}
	if c.MaxCoreWays < nuca.WaysPerBank {
		return fmt.Errorf("core: bank-aware cap %d below one bank (%d ways)", c.MaxCoreWays, nuca.WaysPerBank)
	}
	return nil
}

// BankAware runs the allocation algorithm of Fig. 6 on the eight cores'
// miss curves and returns a physical allocation obeying the three
// Section III.B rules:
//
//  1. Center banks are assigned whole, to a single core.
//  2. Any core receiving Center banks also receives its full Local bank.
//  3. Local banks may only be shared — at way granularity — between
//     adjacent cores.
//
// Phase 1 (Boxes 1–3): every core is provisionally credited with its Local
// bank; the eight Center banks are handed out one at a time to the core
// with the maximum marginal utility for a whole extra bank. Cores that won
// Center capacity are complete. Phase 2 (Boxes 4–5): the remaining cores
// compete for their Local banks way by way; when the max-marginal-utility
// core wants to grow past its own bank, it must overflow into a
// neighbour's Local region, so the ideal adjacent pair (minimal combined
// misses over the jointly optimal 16-way split) is chosen and both cores
// complete. Pairing is deferred as long as possible, exactly as the paper
// describes.
func BankAware(curves []MissCurve, cfg BankAwareConfig) (*Allocation, error) {
	return BankAwareDegraded(curves, cfg, nil, 0)
}

// BankAwareDegraded is BankAware with placement affinity to a previous
// allocation, on a machine with failed banks. Affinity: when the logical
// assignment gives a core Center banks, the banks it already owned in prev
// are reused before new ones are claimed, so an epoch-to-epoch
// reallocation that keeps a core's way count does not move (and thereby
// lose) its cached data; the logical way assignment itself is unaffected.
// Faults: no capacity is assigned in any bank of the failed set, and the
// Section III.B rules are honoured on the surviving banks. A core whose
// Local bank failed is served by pairing into an adjacent surviving Local
// bank or — when the chain around it is dead — by a whole surviving Center
// bank; Rule 2 (a Center owner holds its full Local bank) applies only to
// cores whose Local bank survives. All surviving capacity is assigned: the
// per-core totals sum to failed.SurvivingWays(). An error is returned only
// for fault sets that leave some core physically unservable. With an
// empty failed set it reduces exactly to the paper's algorithm (ownCap is a
// full Local bank everywhere, every Center bank is distributable).
func BankAwareDegraded(curves []MissCurve, cfg BankAwareConfig, prev *Allocation, failed nuca.BankSet) (*Allocation, error) {
	if len(curves) != nuca.NumCores {
		return nil, fmt.Errorf("core: bank-aware needs %d curves, got %d", nuca.NumCores, len(curves))
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if failed.Count() >= nuca.NumBanks {
		return nil, fmt.Errorf("core: no surviving banks in %v", failed)
	}

	// ownCap is each core's private Local region: a whole bank, or nothing
	// when the bank is dead.
	var ownCap [nuca.NumCores]int
	for c := range ownCap {
		if !failed.Has(nuca.LocalBankOf(c)) {
			ownCap[c] = nuca.WaysPerBank
		}
	}
	nCenter := 0
	for b := nuca.NumCores; b < nuca.NumBanks; b++ {
		if !failed.Has(b) {
			nCenter++
		}
	}

	// ---- Phase 1: Center banks at whole-bank granularity. ----
	alloc := make([]int, nuca.NumCores)
	centerCount := make([]int, nuca.NumCores)
	for c := range alloc {
		alloc[c] = ownCap[c] // Local bank provisionally assigned
	}
	// Isolated cores — own Local bank dead and every adjacent Local dead —
	// can only be fed Center capacity. Reserve one bank each before the
	// greedy hand-out so they are never starved.
	for c := range alloc {
		if ownCap[c] > 0 {
			continue
		}
		reachable := false
		for _, p := range nuca.AdjacentCores(c) {
			if ownCap[p] > 0 {
				reachable = true
			}
		}
		if reachable {
			continue
		}
		if nCenter == 0 {
			return nil, fmt.Errorf("core: core %d unservable under fault set %v", c, failed)
		}
		alloc[c] += nuca.WaysPerBank
		centerCount[c]++
		nCenter--
	}
	for remaining := nCenter; remaining > 0; {
		best, bestN := -1, 0
		bestMU := -1.0
		for c := 0; c < nuca.NumCores; c++ {
			room := (cfg.MaxCoreWays - alloc[c]) / nuca.WaysPerBank
			if room > remaining {
				room = remaining
			}
			if room < 1 {
				continue
			}
			// Lookahead over whole-bank extensions: a cliff several banks
			// out still registers, and — crucially for all-or-nothing
			// curves — the winner receives its whole extension at once
			// (a partial grant below a cliff is pure waste).
			n, mu := curves[c].BestLookaheadStride(alloc[c], nuca.WaysPerBank, room)
			if better(mu, n, alloc[c], bestMU, bestN, bestAlloc(best, alloc)) {
				best, bestN, bestMU = c, n, mu
			}
		}
		if best < 0 {
			// Every core is at the cap (cannot happen with the baseline
			// parameters: 8 cores x 72 ways > 128); park the bank with the
			// smallest core as a safe fallback.
			for c := 0; c < nuca.NumCores; c++ {
				if best < 0 || alloc[c] < alloc[best] {
					best = c
				}
			}
			bestN = 1
		}
		alloc[best] += bestN * nuca.WaysPerBank
		centerCount[best] += bestN
		remaining -= bestN
	}

	// ---- Phase 2: Local banks, way granularity, adjacent pairs only. ----
	inLocal := make([]bool, nuca.NumCores) // still competing in phase 2
	for c := 0; c < nuca.NumCores; c++ {
		inLocal[c] = centerCount[c] == 0
	}
	lalloc := make([]int, nuca.NumCores)
	pairedWith := make([]int, nuca.NumCores)
	for c := range pairedWith {
		pairedWith[c] = -1
	}
	done := make([]bool, nuca.NumCores) // phase-2 core settled

	// A viable partner shares a joint region big enough for both floors —
	// two live banks (16 ways) on the healthy machine, one (8 ways) when
	// a member's bank is dead.
	activeNeighbours := func(c int) []int {
		var out []int
		for _, p := range nuca.AdjacentCores(c) {
			if inLocal[p] && !done[p] && p != c && ownCap[c]+ownCap[p] >= 2*cfg.MinCoreWays {
				out = append(out, p)
			}
		}
		return out
	}

	for {
		best, bestN := -1, 0
		bestMU := -1.0
		for c := 0; c < nuca.NumCores; c++ {
			if !inLocal[c] || done[c] {
				continue
			}
			partners := activeNeighbours(c)
			hasPartner := len(partners) > 0
			if lalloc[c] >= ownCap[c] && !hasPartner {
				continue // at own-region capacity with nobody to overflow into
			}
			// Lookahead to the end of the reachable region: the own bank,
			// or the pair's joint region when overflow is possible.
			room := ownCap[c] - lalloc[c]
			if hasPartner {
				maxPair := 0
				for _, p := range partners {
					if ownCap[p] > maxPair {
						maxPair = ownCap[p]
					}
				}
				room = ownCap[c] + maxPair - cfg.MinCoreWays - lalloc[c]
			}
			if room < 1 {
				continue
			}
			n, mu := curves[c].BestLookahead(lalloc[c], room)
			if better(mu, n, lalloc[c], bestMU, bestN, bestAlloc(best, lalloc)) {
				best, bestN, bestMU = c, n, mu
			}
		}
		if best < 0 || bestMU <= 0 {
			break // nobody benefits from more; leftovers settle below
		}
		if lalloc[best]+bestN <= ownCap[best] {
			lalloc[best] += bestN
			continue
		}
		if lalloc[best] < ownCap[best] {
			// The extension crosses into a neighbour's region: fill the
			// own bank now; the overflow decision happens when the core
			// wins again at the boundary.
			lalloc[best] = ownCap[best]
			continue
		}
		// Overflow into a neighbour's Local region (Box 5): choose the
		// ideal pair with respect to minimal combined misses, under the
		// jointly optimal split of the pair's joint region.
		partners := activeNeighbours(best)
		bestP, bestSplit := -1, 0
		bestMisses := 0.0
		for _, p := range partners {
			s, m := optimalPairSplit(curves[best], curves[p], cfg.MinCoreWays, ownCap[best]+ownCap[p])
			if bestP < 0 || m < bestMisses {
				bestP, bestSplit, bestMisses = p, s, m
			}
		}
		if bestP < 0 {
			done[best] = true
			continue
		}
		lalloc[best] = bestSplit
		lalloc[bestP] = ownCap[best] + ownCap[bestP] - bestSplit
		pairedWith[best], pairedWith[bestP] = bestP, best
		done[best], done[bestP] = true, true
	}
	// Unpaired phase-2 cores keep their whole Local region: all surviving
	// capacity is always assigned.
	for c := 0; c < nuca.NumCores; c++ {
		if inLocal[c] && pairedWith[c] < 0 {
			lalloc[c] = ownCap[c]
		}
	}
	// Degraded fix-up: a dead-Local core that never overflowed (its curve
	// projected no benefit, or its neighbours settled first) still needs
	// capacity. Pair it at the jointly optimal split, or — when no live
	// adjacent region is available — hand it a whole Center bank from the
	// best-provisioned Center owner.
	for c := 0; c < nuca.NumCores; c++ {
		if !inLocal[c] || pairedWith[c] >= 0 || lalloc[c] > 0 {
			continue
		}
		fixed := false
		for _, p := range nuca.AdjacentCores(c) {
			if inLocal[p] && pairedWith[p] < 0 && ownCap[p] >= 2*cfg.MinCoreWays {
				s, _ := optimalPairSplit(curves[c], curves[p], cfg.MinCoreWays, ownCap[p])
				lalloc[c], lalloc[p] = s, ownCap[p]-s
				pairedWith[c], pairedWith[p] = p, c
				done[c], done[p] = true, true
				fixed = true
				break
			}
		}
		if fixed {
			continue
		}
		donor := -1
		for d := 0; d < nuca.NumCores; d++ {
			if d != c && centerCount[d] > 0 && alloc[d]-nuca.WaysPerBank >= cfg.MinCoreWays &&
				(donor < 0 || alloc[d] > alloc[donor]) {
				donor = d
			}
		}
		if donor < 0 {
			return nil, fmt.Errorf("core: cannot serve core %d under fault set %v", c, failed)
		}
		alloc[donor] -= nuca.WaysPerBank
		centerCount[donor]--
		alloc[c] += nuca.WaysPerBank
		centerCount[c]++
		inLocal[c] = false
	}
	for c := 0; c < nuca.NumCores; c++ {
		if inLocal[c] {
			alloc[c] = lalloc[c]
		}
	}

	return buildAllocation(alloc, centerCount, pairedWith, prev, failed)
}

// optimalPairSplit returns the split s (ways for core a; the partner gets
// total-s) minimising the pair's combined misses, and that minimal value.
// Both sides keep at least minWays. total is the pair's joint region: two
// Local banks, or one when a member's bank is dead.
func optimalPairSplit(a, b MissCurve, minWays, total int) (s int, misses float64) {
	s = -1
	for k := minWays; k <= total-minWays; k++ {
		m := a.Misses(k) + b.Misses(total-k)
		if s < 0 || m < misses {
			s, misses = k, m
		}
	}
	return s, misses
}

// buildAllocation turns the logical assignment (ways per core, center-bank
// counts, local pairings) into physical way-owner masks over the surviving
// banks. Center banks go to their owners with affinity to the previous
// epoch's placement first (so a stable way count keeps its data), then
// nearest-first (lowest access latency); each pair shares the smaller
// member's Local bank — or the surviving member's when the other is dead —
// so the larger member's bank stays whole.
func buildAllocation(alloc, centerCount, pairedWith []int, prev *Allocation, failed nuca.BankSet) (*Allocation, error) {
	a := &Allocation{Failed: failed}
	own := func(c int) cache.OwnerMask { return cache.OwnerMask(0).With(c) }

	taken := [nuca.NumBanks]bool{}
	need := append([]int(nil), centerCount...)
	// Affinity pass: re-claim previously owned Center banks.
	if prev != nil {
		for c := 0; c < nuca.NumCores; c++ {
			for b := nuca.NumCores; b < nuca.NumBanks && need[c] > 0; b++ {
				if !taken[b] && !failed.Has(b) && prev.WaysIn(c, b) == nuca.WaysPerBank {
					taken[b] = true
					need[c]--
					for w := 0; w < nuca.WaysPerBank; w++ {
						a.WayOwners[b][w] = own(c)
					}
				}
			}
		}
	}
	// Remaining Center banks: nearest-first per core, cores in id order
	// (the Center cluster sits mid-chip, so latency differences within it
	// are small by construction).
	for c := 0; c < nuca.NumCores; c++ {
		for k := 0; k < need[c]; k++ {
			b := nearestFreeCenter(c, &taken, failed)
			taken[b] = true
			for w := 0; w < nuca.WaysPerBank; w++ {
				a.WayOwners[b][w] = own(c)
			}
		}
	}

	// Local banks.
	for c := 0; c < nuca.NumCores; c++ {
		lb := nuca.LocalBankOf(c)
		if failed.Has(lb) {
			continue // dead bank: no owners
		}
		p := pairedWith[c]
		switch {
		case p < 0:
			// Whole bank to its core (complete cores and singletons).
			for w := 0; w < nuca.WaysPerBank; w++ {
				a.WayOwners[lb][w] = own(c)
			}
		case failed.Has(nuca.LocalBankOf(p)):
			// The partner's bank is dead: this bank carries the whole
			// pair. The partner holds its full share here.
			spill := alloc[p]
			if spill < 0 || spill >= nuca.WaysPerBank {
				return nil, fmt.Errorf("core: degraded pair (%d,%d) spill %d out of range", c, p, spill)
			}
			for w := 0; w < nuca.WaysPerBank; w++ {
				if w < spill {
					a.WayOwners[lb][w] = own(p)
				} else {
					a.WayOwners[lb][w] = own(c)
				}
			}
		case alloc[c] >= alloc[p]:
			// The larger member keeps its own bank whole; handled when we
			// visit the smaller member (below) to avoid double work.
			for w := 0; w < nuca.WaysPerBank; w++ {
				a.WayOwners[lb][w] = own(c)
			}
		default:
			// c is the smaller member: its bank is shared. Its partner
			// holds alloc[p] - 8 ways here; c holds the rest.
			spill := alloc[p] - nuca.WaysPerBank
			if spill < 0 || spill >= nuca.WaysPerBank {
				return nil, fmt.Errorf("core: pair (%d,%d) spill %d out of range", c, p, spill)
			}
			for w := 0; w < nuca.WaysPerBank; w++ {
				if w < spill {
					a.WayOwners[lb][w] = own(p)
				} else {
					a.WayOwners[lb][w] = own(c)
				}
			}
		}
	}
	a.recount()
	for c := 0; c < nuca.NumCores; c++ {
		if a.Ways[c] != alloc[c] {
			return nil, fmt.Errorf("core: core %d placed %d ways, algorithm said %d", c, a.Ways[c], alloc[c])
		}
	}
	return a, nil
}
