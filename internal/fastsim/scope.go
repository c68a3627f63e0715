package fastsim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"bankaware/internal/cache"
	"bankaware/internal/core"
	"bankaware/internal/nuca"
	"bankaware/internal/sim"
	"bankaware/internal/trace"
)

// Scope is the policy-independent part of a fast evaluation of one
// workload mix on one machine under one seed: the workload profiles, the
// curve tables derived from them, the eight micro-replay streams and the
// window results. The policy units of a set run one System each on a
// shared scope. Every stream is drawn once, however many units read it,
// and a window, which is a pure function of its key, is replayed once
// however many units ask for it. So each unit's result is exactly what a
// solo run (New, which builds a private scope) computes.
//
// A Scope is safe for concurrent use by its Systems. A stream draws under
// its own lock and is read without one (see coreStream). A window is
// single-flighted per key: a unit that asks for a key another unit is
// replaying waits for that replay, and replays of distinct keys run in
// parallel.
type Scope struct {
	cfg   sim.Config
	profs []*profile
	// actN[c][i] is the activation threshold of depth atom i of core c: the
	// L2-access count at which the stream has touched enough distinct blocks
	// for that reuse depth to exist at all. Before it, the generator turns
	// such draws into first touches — the cold-start transient that makes
	// warm-up CPIs exceed steady-state CPIs and (through the resume snap)
	// spreads measured CPIs across cores.
	actN [nuca.NumCores][]float64
	// curveSH[c][w][i] = sum over atoms j < i of mass_j * steady hit
	// probability at w ways in the profiler view — prefix sums for the
	// transient-corrected policy curves.
	curveSH [nuca.NumCores][][]float64
	shapes  [nuca.NumCores][]float64 // steady missProjected at the profiler view

	streams []*coreStream

	mu       sync.Mutex
	windows  map[windowKey]*windowEntry
	replayed atomic.Int64
}

// windowEntry single-flights one window's replay.
type windowEntry struct {
	once sync.Once
	r    windowResult
}

// allocKey is the physically observable allocation state: the cores that
// may fill each way, and whether placement hashes across the banks.
type allocKey struct {
	owners [nuca.NumBanks][nuca.WaysPerBank]cache.OwnerMask
	hashed bool
}

// solveKey identifies one steady capacity state: the installed allocation
// and (because shared-mode contention couples cores) the active set.
type solveKey struct {
	alloc  allocKey
	active uint8 // bit c set while core c runs
}

// runs reports whether core c is in the key's active set.
func (k solveKey) runs(c int) bool { return k.active&(1<<c) != 0 }

// windowKey identifies one micro-replay: a capacity state and each active
// core's miss ratio as an index on the replay grid. Everything a replay
// reads beyond the scope is a function of it.
type windowKey struct {
	solveKey
	m2 [nuca.NumCores]uint8
}

// m2Steps is the replay grid's index of miss ratio 1 (exactly 50 steps of
// m2Quantum).
const m2Steps = 1 / m2Quantum

// gridIndex returns the replay-grid index of miss ratio m2: the nearest
// multiple of m2Quantum, clamped to [0, 1].
func gridIndex(m2 float64) uint8 {
	i := math.Round(m2 / m2Quantum)
	switch {
	case i <= 0:
		return 0
	case i >= m2Steps:
		return m2Steps
	}
	return uint8(i)
}

// gridRatio returns the miss ratio at replay-grid index i.
func gridRatio(i uint8) float64 { return float64(i) * m2Quantum }

// NewScope prepares the fast evaluation of specs (one per core) on the
// machine cfg. It rejects configurations whose semantics the interval
// model does not reproduce (fault plans, PLRU victims, strict lookup,
// adaptive epochs) — those campaigns must run at detailed fidelity.
func NewScope(cfg sim.Config, specs []trace.Spec) (*Scope, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(specs) != nuca.NumCores {
		return nil, fmt.Errorf("fastsim: need %d workload specs, got %d", nuca.NumCores, len(specs))
	}
	switch {
	case cfg.Faults != nil:
		return nil, fmt.Errorf("fastsim: fault injection requires detailed fidelity")
	case cfg.L2Replacement != cache.LRU:
		return nil, fmt.Errorf("fastsim: non-LRU L2 replacement requires detailed fidelity")
	case cfg.L2StrictLookup:
		return nil, fmt.Errorf("fastsim: strict L2 lookup requires detailed fidelity")
	case cfg.AdaptiveEpochs:
		return nil, fmt.Errorf("fastsim: adaptive epochs require detailed fidelity")
	}
	sc := &Scope{cfg: cfg, windows: map[windowKey]*windowEntry{}}
	// Profile passes are independent fixed-seed measurements, so build
	// them concurrently; profileFor single-flights duplicates. The derived
	// curves below stay sequential — their arithmetic order is part of the
	// byte-stability contract.
	profs := make([]*profile, len(specs))
	profErrs := make([]error, len(specs))
	var wg sync.WaitGroup
	for c, spec := range specs {
		wg.Add(1)
		go func(c int, spec trace.Spec) {
			defer wg.Done()
			profs[c], profErrs[c] = profileFor(spec, cfg.BankSets, cfg.L1)
		}(c, spec)
	}
	wg.Wait()
	for _, err := range profErrs {
		if err != nil {
			return nil, err
		}
	}
	for c := range specs {
		p := profs[c]
		sc.profs = append(sc.profs, p)
		shape := make([]float64, cfg.Profiler.MaxWays+1)
		for w := range shape {
			shape[w] = p.missProjected(cfg.Profiler.Sets, w)
		}
		sc.shapes[c] = shape
		actN := make([]float64, len(p.atoms))
		for i, a := range p.atoms {
			actN[i] = p.accessesToSpan(a.depth * float64(p.setsM))
		}
		sc.actN[c] = actN
		sh := make([][]float64, cfg.Profiler.MaxWays+1)
		for w := range sh {
			pre := make([]float64, len(p.atoms)+1)
			for i, a := range p.atoms {
				pre[i+1] = pre[i] + a.mass*p.hitProjected(a, cfg.Profiler.Sets, w)
			}
			sh[w] = pre
		}
		sc.curveSH[c] = sh
	}
	sc.streams = buildStreams(cfg.Seed, sc.profs)
	return sc, nil
}

// NewSystem builds one policy unit on the scope.
func (sc *Scope) NewSystem(policy core.Policy) (*System, error) {
	if policy == nil {
		return nil, fmt.Errorf("fastsim: nil policy")
	}
	s := &System{
		scope:     sc,
		capSolves: map[solveKey]*capSolve{},
		replays:   map[windowKey]*windowResult{},
		nextEpoch: float64(sc.cfg.EpochCycles),
	}
	s.Accounting = sim.NewAccounting(policy, nil, sim.Probes{
		Counters:  s.counters,
		Occupancy: s.bankOccupancy,
		Register:  s.registerGauges,
	})
	if err := s.repartition(0); err != nil {
		return nil, err
	}
	return s, nil
}

// Replays returns the number of windows the scope has replayed.
func (sc *Scope) Replays() int { return int(sc.replayed.Load()) }

// Drawn returns the number of events drawn so far from core c's stream.
func (sc *Scope) Drawn(c int) int {
	st := sc.streams[c]
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.drawn.events)
}

// window returns the result of the replay key names, running it first if
// no System of the scope has asked for key before. A replay this call
// runs classifies into flags, the caller's storage.
func (sc *Scope) window(key windowKey, flags *[nuca.NumCores][]bool) *windowResult {
	sc.mu.Lock()
	e := sc.windows[key]
	if e == nil {
		e = &windowEntry{}
		sc.windows[key] = e
	}
	sc.mu.Unlock()
	e.once.Do(func() {
		e.r = sc.replayWindow(sc.windowParams(key), flags)
		sc.replayed.Add(1)
	})
	return &e.r
}

// windowParams derives everything a replay reads beyond the streams from
// its key.
func (sc *Scope) windowParams(key windowKey) windowParams {
	p := windowParams{hashed: key.alloc.hashed}
	for c := 0; c < nuca.NumCores; c++ {
		p.active[c] = key.runs(c)
		p.m2[c] = gridRatio(key.m2[c])
		p.wbFrac[c] = sc.profs[c].effWbFrac()
		p.runLen[c] = sc.profs[c].runLenAt(p.m2[c])
		if p.hashed {
			continue
		}
		// The owned-way ring: each bank once per way core c owns there.
		for b := 0; b < nuca.NumBanks; b++ {
			for _, owners := range key.alloc.owners[b] {
				if owners.Has(c) {
					p.rings[c] = append(p.rings[c], b)
				}
			}
		}
	}
	return p
}
