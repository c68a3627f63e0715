package montecarlo

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"bankaware/internal/runner"
)

// The engine's core guarantee: for a fixed seed, the parallel run is
// byte-identical to the serial one — every trial, every float.
func TestParallelMatchesSerialExactly(t *testing.T) {
	cfg := smallConfig(300)
	serial, err := RunContext(context.Background(), cfg, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunContext(context.Background(), cfg, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if serial.MeanUnrestrictedRatio != parallel.MeanUnrestrictedRatio ||
		serial.MeanBankAwareRatio != parallel.MeanBankAwareRatio {
		t.Fatalf("means differ: serial %v/%v parallel %v/%v",
			serial.MeanUnrestrictedRatio, serial.MeanBankAwareRatio,
			parallel.MeanUnrestrictedRatio, parallel.MeanBankAwareRatio)
	}
	if len(serial.Trials) != len(parallel.Trials) {
		t.Fatalf("trial counts differ: %d vs %d", len(serial.Trials), len(parallel.Trials))
	}
	for i := range serial.Trials {
		if serial.Trials[i] != parallel.Trials[i] {
			t.Fatalf("trial %d differs:\nserial   %+v\nparallel %+v",
				i, serial.Trials[i], parallel.Trials[i])
		}
	}
}

func TestCancelledContextReturnsCanceled(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, smallConfig(5000), Options{Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestProgressReportsEveryTrial(t *testing.T) {
	var done int
	_, err := RunContext(context.Background(), smallConfig(25), Options{
		Workers: 2,
		Progress: func(p runner.Progress) {
			if p.Kind == runner.JobDone {
				done++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if done != 25 {
		t.Fatalf("saw %d done events for 25 trials", done)
	}
}
