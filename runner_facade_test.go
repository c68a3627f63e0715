package bankaware_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"bankaware"
)

func TestRunnerWithSeedOverridesConfig(t *testing.T) {
	cfg := bankaware.DefaultMonteCarloConfig()
	cfg.Trials = 40
	a, err := bankaware.NewRunner(bankaware.WithSeed(123)).RunMonteCarlo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Seed = 123
	b, err := bankaware.RunMonteCarloContext(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanBankAwareRatio != b.MeanBankAwareRatio {
		t.Fatal("WithSeed(123) differs from cfg.Seed=123")
	}
	if a.MeanBankAwareRatio == mustMC(t, cfg).MeanBankAwareRatio {
		t.Fatal("seed override had no effect")
	}
}

func mustMC(t *testing.T, cfg bankaware.MonteCarloConfig) *bankaware.MonteCarloResults {
	t.Helper()
	r, err := bankaware.RunMonteCarloContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunMonteCarloContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := bankaware.DefaultMonteCarloConfig()
	cfg.Trials = 5000
	_, err := bankaware.RunMonteCarloContext(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunnerProgressHook(t *testing.T) {
	cfg := bankaware.DefaultMonteCarloConfig()
	cfg.Trials = 30
	var done int
	_, err := bankaware.RunMonteCarloContext(context.Background(), cfg,
		bankaware.WithWorkers(2),
		bankaware.WithProgress(func(p bankaware.Progress) {
			if p.Kind == bankaware.JobDone {
				done++
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if done != 30 {
		t.Fatalf("progress saw %d done events for 30 trials", done)
	}
}

func TestRunExperimentsContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := bankaware.RunExperimentsContext(ctx, bankaware.ScaleModel, 50_000_000,
		bankaware.WithWorkers(2))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestRunExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("detailed simulation in -short mode")
	}
	res, err := bankaware.NewRunner().RunExperiments(bankaware.ScaleModel, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sets) != 8 {
		t.Fatalf("%d sets", len(res.Sets))
	}
	if !(res.GMRelMissBank > 0) {
		t.Fatalf("GM bank miss ratio = %v", res.GMRelMissBank)
	}
}
