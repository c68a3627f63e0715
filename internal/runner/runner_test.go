package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapResultsIndexedByJob(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 0} {
		got, err := Map(context.Background(), Config{Workers: workers}, 100,
			func(_ context.Context, job int) (int, error) { return job * job, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: job %d = %d", workers, i, v)
			}
		}
	}
}

func TestMapZeroJobs(t *testing.T) {
	got, err := Map(context.Background(), Config{}, 0,
		func(context.Context, int) (int, error) { return 0, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestWorkersBounded(t *testing.T) {
	var cur, peak atomic.Int64
	_, err := Map(context.Background(), Config{Workers: 3}, 50,
		func(context.Context, int) (struct{}, error) {
			if n := cur.Add(1); n > peak.Load() {
				peak.Store(n)
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			return struct{}{}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 3 {
		t.Fatalf("observed %d concurrent jobs with Workers=3", p)
	}
}

func TestFirstErrorWinsAndCancelsRest(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	started := make(chan struct{})
	_, err := Map(context.Background(), Config{Workers: 2}, 1000,
		func(ctx context.Context, job int) (int, error) {
			ran.Add(1)
			switch job {
			case 3:
				// Fail only once job 4 runs, so the failure has a running job
				// to cancel and the other worker cannot drain the queue first.
				select {
				case <-started:
				case <-time.After(5 * time.Second):
				}
				return 0, fmt.Errorf("job 3: %w", boom)
			case 4:
				close(started)
				select {
				case <-ctx.Done():
					return 0, ctx.Err()
				case <-time.After(5 * time.Second):
					t.Error("failure did not cancel the running job")
				}
			}
			return job, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := ran.Load(); n == 1000 {
		t.Fatal("failure did not stop the queue")
	}
}

func TestPanicRecovered(t *testing.T) {
	_, err := Map(context.Background(), Config{Workers: 4}, 10,
		func(_ context.Context, job int) (int, error) {
			if job == 5 {
				panic("kaboom")
			}
			return job, nil
		})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}
	if pe.Job != 5 || !strings.Contains(pe.Error(), "kaboom") {
		t.Fatalf("panic error = %v", pe)
	}
}

func TestCancellationReturnsContextErrWithoutLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var startedOnce sync.Once
	begun := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		_, err := Map(ctx, Config{Workers: 2}, 500, func(ctx context.Context, job int) (struct{}, error) {
			startedOnce.Do(func() { close(begun) })
			<-ctx.Done()
			return struct{}{}, ctx.Err()
		})
		errc <- err
	}()
	<-begun
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("engine did not unwind after cancellation")
	}

	// All workers must have exited; allow slack for runtime goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestDeadlinePropagates(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := Map(ctx, Config{Workers: 2}, 10_000, func(ctx context.Context, job int) (struct{}, error) {
		select {
		case <-ctx.Done():
			return struct{}{}, ctx.Err()
		case <-time.After(time.Millisecond):
			return struct{}{}, nil
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestProgressEvents(t *testing.T) {
	var events []Progress
	cfg := Config{Workers: 1, Progress: func(p Progress) { events = append(events, p) }}
	boom := errors.New("boom")
	_, _ = Map(context.Background(), cfg, 3, func(_ context.Context, job int) (int, error) {
		if job == 2 {
			return 0, boom
		}
		return job, nil
	})
	var starts, dones, fails int
	for _, e := range events {
		switch e.Kind {
		case JobStarted:
			starts++
		case JobDone:
			dones++
			if e.Elapsed < 0 {
				t.Fatal("negative elapsed")
			}
		case JobFailed:
			fails++
			if !errors.Is(e.Err, boom) {
				t.Fatalf("failed event err = %v", e.Err)
			}
		}
		if e.Total != 3 {
			t.Fatalf("event total = %d", e.Total)
		}
	}
	if starts != 3 || dones != 2 || fails != 1 {
		t.Fatalf("starts=%d dones=%d fails=%d", starts, dones, fails)
	}
	last := events[len(events)-1]
	if last.Completed() != 3 {
		t.Fatalf("final completed = %d", last.Completed())
	}
}

func TestPrinterRendersFinalLine(t *testing.T) {
	var sb strings.Builder
	p := Printer(&sb, "trials")
	p(Progress{Kind: JobDone, Job: 0, Total: 2, Done: 1})
	p(Progress{Kind: JobDone, Job: 1, Total: 2, Done: 2})
	out := sb.String()
	if !strings.Contains(out, "trials: 2/2 done") || !strings.HasSuffix(out, "\n") {
		t.Fatalf("printer output = %q", out)
	}
}
