package fastsim

import (
	"math"

	"bankaware/internal/nuca"
)

// The capacity model turns the measured per-set depth distribution into
// expected miss ratios for any allocation. Placement of the generator's
// dominant structures (contiguous loop and cold regions, round-robin bank
// rings) is deterministic, so the partitioned formulas use proportional
// splits with a one-way linear ramp at the knee — preserving the sharp LRU
// cliffs the workloads are built around — while the shared hashed baseline
// smears *other cores'* insertions with a Poisson model (cross-core
// interleaving is genuinely random).

// ramp is the unit hit ramp: 1 when the block plus its k-or-fewer
// intermediates fit the ways, 0 when they exceed them, linear in between
// (fractional per-set splits land between integer depths).
func ramp(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	return x
}

// poissonCDF returns P(Poisson(lambda) <= k) for real k in
// [0, nuca.WaysPerBank) (linear interpolation between integer arguments;
// the log-factorial table ends there), computed by log-space term
// summation with a running-max rescale so huge lambdas neither overflow nor
// flush the whole sum.
func poissonCDF(k, lambda float64) float64 {
	if k < 0 {
		return 0
	}
	if lambda <= 0 {
		return 1
	}
	ki := int(k)
	frac := k - float64(ki)
	logL := math.Log(lambda)
	maxLog := math.Inf(-1)
	acc := 0.0
	cdfAt := 0.0
	for i := 0; i <= ki+1; i++ {
		lt := float64(i)*logL - lambda - logFactorials[i]
		if lt > maxLog {
			acc = acc*math.Exp(maxLog-lt) + 1
			maxLog = lt
		} else {
			acc += math.Exp(lt - maxLog)
		}
		if i == ki {
			cdfAt = acc * math.Exp(maxLog)
		}
	}
	full := acc * math.Exp(maxLog)
	v := cdfAt + frac*(full-cdfAt)
	if v > 1 {
		return 1
	}
	return v
}

// logFactorials[i] is log(i!), as math.Lgamma(i+1) computes it, for every
// i a shared-cache solve asks for: its Poisson terms stop at a bank's
// ways.
var logFactorials = func() (t [nuca.WaysPerBank + 1]float64) {
	for i := range t {
		t[i], _ = math.Lgamma(float64(i + 1))
	}
	return t
}()

// hitProjected returns the hit probability of one depth atom in an
// idealised `sets`-set, `ways`-way LRU cache — the MSA profiler's view.
// Depths were measured at p.setsM sets and scale inversely with the set
// count.
func (p *profile) hitProjected(a distAtom, sets, ways int) float64 {
	d := a.depth * float64(p.setsM) / float64(sets)
	return ramp(float64(ways) - d)
}

// missProjected returns the expected miss ratio of the workload in an
// idealised `sets`-set, `ways`-way LRU cache. ways == 0 means everything
// misses.
func (p *profile) missProjected(sets, ways int) float64 {
	if len(p.atoms) == 0 && p.coldMass == 0 {
		return 0
	}
	if ways <= 0 {
		return 1
	}
	miss := p.coldMass
	for _, a := range p.atoms {
		miss += a.mass * (1 - p.hitProjected(a, sets, ways))
	}
	return miss
}

// hitPartitioned returns the hit probability of one depth atom in the
// core's private partition: `sets` sets whose ways are split into per-bank
// groups. Insertion is round-robin proportional to group size, so a block
// competes only with its group's share of the reuse traffic; the group sum
// reproduces the structure (slightly weaker than one monolithic LRU of the
// same total associativity).
func (p *profile) hitPartitioned(a distAtom, sets int, wayGroups []int, totalWays int) float64 {
	w := float64(totalWays)
	scale := float64(p.setsM) / float64(sets)
	hit := 0.0
	for _, k := range wayGroups {
		if k <= 0 {
			continue
		}
		share := float64(k) / w
		hit += share * ramp(float64(k)-a.depth*share*scale)
	}
	return hit
}

// missPartitioned is the miss-ratio sum of hitPartitioned over the whole
// distribution.
func (p *profile) missPartitioned(sets int, wayGroups []int) float64 {
	if len(p.atoms) == 0 && p.coldMass == 0 {
		return 0
	}
	total := 0
	for _, k := range wayGroups {
		total += k
	}
	if total <= 0 {
		return 1
	}
	miss := p.coldMass
	for _, a := range p.atoms {
		miss += a.mass * (1 - p.hitPartitioned(a, sets, wayGroups, total))
	}
	return miss
}

// hitShared returns the hit probability of depth atom i of core c when
// all cores share the whole hashed L2 (the no-partition baseline). The
// core's own reuse spreads deterministically over all banks (contiguous
// blocks, modular hash); every other active core j inserts U_j(r_j*tau)
// distinct blocks during the reuse interval tau, hashed randomly relative
// to this core's — a Poisson competitor count per set. The reuse interval
// spans the accesses that touch the atom's depth in distinct blocks, the
// atom's activation threshold actN.
// m2Prev carries the previous fixed-point round's miss-ratio estimates:
// under churn a block can be evicted and refetched within the reuse
// interval, and each refetch pushes resident lines down one more slot, so
// the competitor count is the larger of distinct blocks touched and
// insertions made (misses).
func (sc *Scope) hitShared(c, i int, rates, m2Prev []float64) float64 {
	profs := sc.profs
	p := profs[c]
	a := p.atoms[i]
	sharedSets := float64(nuca.NumBanks * sc.cfg.BankSets)
	ownDepth := a.depth * float64(p.setsM) / sharedSets
	room := float64(nuca.WaysPerBank) - ownDepth
	if room <= 0 {
		return 0
	}
	tau := sc.actN[c][i] / rates[c]
	var others float64
	for j, q := range profs {
		if j == c || rates[j] <= 0 || q == nil {
			continue
		}
		acc := rates[j] * tau
		push := q.distinctAfter(acc)
		if len(m2Prev) == len(profs) {
			if ins := m2Prev[j] * acc; ins > push {
				push = ins
			}
		}
		others += push
	}
	return poissonCDF(room-1, others/sharedSets)
}

// sharedMissRatios fills m2 with each active core's expected miss ratio in
// the shared hashed L2. rates holds per-core L2 accesses per cycle (zero
// for inactive cores).
func (sc *Scope) sharedMissRatios(rates, m2Prev, m2 []float64) {
	for c, p := range sc.profs {
		if rates[c] <= 0 || p == nil || (len(p.atoms) == 0 && p.coldMass == 0) {
			m2[c] = 0
			continue
		}
		miss := p.coldMass
		for i, a := range p.atoms {
			miss += a.mass * (1 - sc.hitShared(c, i, rates, m2Prev))
		}
		m2[c] = miss
	}
}
