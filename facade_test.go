package bankaware_test

import (
	"testing"

	"bankaware"
)

// The facade is the supported public surface; these tests pin that its
// aliases and constructors actually compose into the library's core loop.

func TestFacadeProfileAllocateLoop(t *testing.T) {
	curves := make([]bankaware.MissCurve, 8)
	for i := 0; i < 8; i++ {
		spec, err := bankaware.SpecByName(bankaware.CatalogNames()[i])
		if err != nil {
			t.Fatal(err)
		}
		prof, err := bankaware.NewProfiler(bankaware.ProfilerConfig{Sets: 64, MaxWays: 72})
		if err != nil {
			t.Fatal(err)
		}
		gen, err := bankaware.NewGenerator(spec, bankaware.NewRNG(uint64(i), 3),
			bankaware.GeneratorConfig{BlocksPerWay: 64})
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 20_000; k++ {
			prof.Access(gen.Next().Access.Addr)
		}
		curves[i] = prof.MissCurve()
	}
	alloc, err := bankaware.BankAware(curves, bankaware.DefaultBankAware())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, w := range alloc.Ways {
		sum += w
	}
	if sum != 128 {
		t.Fatalf("facade allocation sums to %d ways", sum)
	}
}

func TestFacadePolicies(t *testing.T) {
	for _, name := range []string{"none", "equal", "bankaware", "bandwidth", "unrestricted"} {
		p, err := bankaware.PolicyByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() == "" {
			t.Fatalf("%s has no display name", name)
		}
	}
}

func TestFacadeCatalog(t *testing.T) {
	if len(bankaware.Catalog()) != 26 {
		t.Fatal("catalog size via facade wrong")
	}
	if _, err := bankaware.SpecByName("mcf"); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeMonteCarlo(t *testing.T) {
	cfg := bankaware.DefaultMonteCarloConfig()
	cfg.Trials = 20
	res, err := bankaware.NewRunner().RunMonteCarlo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 20 {
		t.Fatalf("%d trials", len(res.Trials))
	}
}

func TestFacadeSimulation(t *testing.T) {
	cfg := bankaware.DefaultSimConfig()
	cfg.BankSets = 128
	cfg.L1.Sets = 32
	cfg.Profiler.Sets = 128
	cfg.EpochCycles = 500_000
	specs := make([]bankaware.Spec, 8)
	for i := range specs {
		s, err := bankaware.SpecByName("eon")
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = s
	}
	sys, err := bankaware.NewSystem(cfg, bankaware.EqualPolicy{}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(50_000); err != nil {
		t.Fatal(err)
	}
	r := sys.Result(nil)
	if r.TotalL2Accesses == 0 {
		t.Fatal("no traffic through the facade-configured system")
	}
}

func TestFacadeReplacementConstants(t *testing.T) {
	if bankaware.ReplacementLRU == bankaware.ReplacementTreePLRU {
		t.Fatal("replacement constants collide")
	}
}
