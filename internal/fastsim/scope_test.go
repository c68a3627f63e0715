package fastsim

import (
	"context"
	"encoding/json"
	"math"
	"sync"
	"testing"

	"bankaware/internal/core"
	"bankaware/internal/metrics"
	"bankaware/internal/msa"
	"bankaware/internal/nuca"
	"bankaware/internal/sim"
	"bankaware/internal/trace"
)

// scopeConfig is the 1/16-scale model machine the served set jobs run on,
// with 1.5 M-cycle epochs, at seed.
func scopeConfig(seed uint64) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.BankSets, cfg.L1.Sets = 128, 32
	cfg.Profiler = msa.Config{Sets: 128, MaxWays: 72, SampleLog2: 0, PartialTagBits: 12}
	cfg.EpochCycles = 1_500_000
	cfg.Seed = seed
	return cfg
}

// setPolicies returns fresh No-partitions, Equal and Bank-aware policies,
// the three units of a set.
func setPolicies() []core.Policy {
	return []core.Policy{core.NoPartitionPolicy{}, core.EqualPolicy{}, core.NewBankAwarePolicy()}
}

// runUnit runs s through a set unit's protocol (warm-up to half the budget,
// stats reset, measured run) and returns its run report's bytes.
func runUnit(t *testing.T, s *System, workloads []string, instructions uint64) []byte {
	t.Helper()
	s.EnableMetrics(metrics.NewRecorder())
	ctx := context.Background()
	if err := s.RunContext(ctx, instructions/2); err != nil {
		t.Error(err)
		return nil
	}
	s.ResetStats()
	if err := s.RunContext(ctx, instructions); err != nil {
		t.Error(err)
		return nil
	}
	b, err := json.Marshal(s.RunReport("", workloads))
	if err != nil {
		t.Error(err)
	}
	return b
}

// The three units of a set, run concurrently on one scope, each report
// exactly their solo runs' bytes. The scope replays the union of the
// windows the units asked for, each once, which is fewer than the units
// asked for between them, and draws each core's stream exactly as far as
// the furthest solo unit drew it.
func TestScopeRunsEachWindowOnce(t *testing.T) {
	workloads := []string{"apsi", "galgel", "gcc", "mgrid", "applu", "mesa", "facerec", "gzip"}
	specs := make([]trace.Spec, len(workloads))
	for c, name := range workloads {
		specs[c] = trace.MustSpec(name)
	}
	const instructions = 3_000_000
	for _, seed := range []uint64{1, 7} {
		cfg := scopeConfig(seed)
		var solo [][]byte
		var soloDrawn [nuca.NumCores]int
		for _, policy := range setPolicies() {
			s, err := New(cfg, policy, specs)
			if err != nil {
				t.Fatal(err)
			}
			solo = append(solo, runUnit(t, s, workloads, instructions))
			if got, want := s.scope.Replays(), len(s.replays); got != want {
				t.Errorf("seed %d %s: private scope replayed %d windows, the unit asked for %d", seed, policy.Name(), got, want)
			}
			for c := range soloDrawn {
				soloDrawn[c] = max(soloDrawn[c], s.scope.Drawn(c))
			}
		}

		sc, err := NewScope(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		var units []*System
		for _, policy := range setPolicies() {
			s, err := sc.NewSystem(policy)
			if err != nil {
				t.Fatal(err)
			}
			units = append(units, s)
		}
		shared := make([][]byte, len(units))
		var wg sync.WaitGroup
		for i, s := range units {
			wg.Add(1)
			go func() {
				defer wg.Done()
				shared[i] = runUnit(t, s, workloads, instructions)
			}()
		}
		wg.Wait()

		union := map[windowKey]bool{}
		asked := 0
		for i, s := range units {
			if string(shared[i]) != string(solo[i]) {
				t.Errorf("seed %d %s: shared-scope report differs from the solo run's", seed, s.Policy().Name())
			}
			for k := range s.replays {
				union[k] = true
			}
			asked += len(s.replays)
		}
		if got := sc.Replays(); got != len(union) || got != len(sc.windows) {
			t.Errorf("seed %d: scope replayed %d windows and holds %d, want the union of the units' keys, %d", seed, got, len(sc.windows), len(union))
		}
		if sc.Replays() >= asked {
			t.Errorf("seed %d: scope replayed %d windows, the units asked for %d between them: nothing shared", seed, sc.Replays(), asked)
		}
		for c, want := range soloDrawn {
			if got := sc.Drawn(c); got != want {
				t.Errorf("seed %d core %d: scope drew %d events, the furthest solo unit %d", seed, c, got, want)
			}
		}
		// A window's result is a function of its key alone: replayed in any
		// order on a fresh scope, into fresh flag storage, every window
		// gives what the units' replays stored.
		fresh, err := NewScope(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		for key, e := range sc.windows {
			var flags [nuca.NumCores][]bool
			if got := fresh.replayWindow(fresh.windowParams(key), &flags); got != e.r {
				t.Errorf("seed %d: window %+v replays to %+v on a fresh scope, the units stored %+v", seed, key.m2, got, e.r)
			}
		}
	}
}

// The window key's grid index names exactly the miss ratio the replay
// runs at: the nearest multiple of m2Quantum, clamped to [0, 1].
func TestGridIndexIsTheQuantisedRatio(t *testing.T) {
	seen := map[uint8]float64{}
	for i := 0; i <= 130_000; i++ {
		m2 := float64(i) * 1e-5
		q := math.Min(math.Round(m2/m2Quantum)*m2Quantum, 1)
		idx := gridIndex(m2)
		if got := gridRatio(idx); math.Float64bits(got) != math.Float64bits(q) {
			t.Fatalf("m2 %v: grid index %d runs at %v, want %v", m2, idx, got, q)
		}
		if prev, ok := seen[idx]; ok && prev != q {
			t.Fatalf("grid index %d names both %v and %v", idx, prev, q)
		}
		seen[idx] = q
	}
	if want := int(m2Steps) + 1; len(seen) != want {
		t.Fatalf("%d grid indices, want %d", len(seen), want)
	}
}
