package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bankaware/internal/atomicio"
)

func TestRetriesRecoverFlakyJobs(t *testing.T) {
	var attempts [4]int32
	res, err := Map(context.Background(), Config{Workers: 2, Retries: 2}, 4,
		func(_ context.Context, job int) (int, error) {
			n := atomic.AddInt32(&attempts[job], 1)
			if job == 2 && n < 3 { // fails twice, succeeds on the last attempt
				return 0, fmt.Errorf("transient %d", n)
			}
			return job * 10, nil
		})
	if err != nil {
		t.Fatalf("campaign failed despite retry budget: %v", err)
	}
	if res[2] != 20 {
		t.Fatalf("job 2 result %d, want 20", res[2])
	}
	if got := atomic.LoadInt32(&attempts[2]); got != 3 {
		t.Fatalf("job 2 ran %d attempts, want 3", got)
	}
}

func TestRetriesExhaustedFailsCampaign(t *testing.T) {
	sentinel := errors.New("permanent")
	var attempts int32
	_, err := Map(context.Background(), Config{Workers: 1, Retries: 3}, 1,
		func(_ context.Context, _ int) (int, error) {
			atomic.AddInt32(&attempts, 1)
			return 0, sentinel
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
	if got := atomic.LoadInt32(&attempts); got != 4 { // 1 + 3 retries
		t.Fatalf("ran %d attempts, want 4", got)
	}
}

func TestRetriedProgressEvents(t *testing.T) {
	var mu sync.Mutex
	var retried int
	_, err := Map(context.Background(), Config{
		Workers: 1, Retries: 2,
		Progress: func(p Progress) {
			mu.Lock()
			defer mu.Unlock()
			if p.Kind == JobRetried {
				retried++
				if p.Err == nil {
					t.Error("JobRetried event without the attempt's error")
				}
			}
		},
	}, 1, func(_ context.Context, _ int) (int, error) {
		mu.Lock()
		n := retried
		mu.Unlock()
		if n < 2 {
			return 0, errors.New("flaky")
		}
		return 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if retried != 2 {
		t.Fatalf("observed %d JobRetried events, want 2", retried)
	}
}

func TestCancellationIsNotRetried(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var attempts int32
	_, err := Map(ctx, Config{Workers: 1, Retries: 5}, 1,
		func(_ context.Context, _ int) (int, error) {
			atomic.AddInt32(&attempts, 1)
			cancel()
			return 0, context.Canceled
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := atomic.LoadInt32(&attempts); got != 1 {
		t.Fatalf("cancelled job ran %d attempts, want 1", got)
	}
}

func TestJobTimeoutBoundsAttempts(t *testing.T) {
	var attempts int32
	start := time.Now()
	_, err := Map(context.Background(), Config{Workers: 1, JobTimeout: 20 * time.Millisecond, Retries: 1}, 1,
		func(ctx context.Context, _ int) (int, error) {
			atomic.AddInt32(&attempts, 1)
			<-ctx.Done() // a hung job, bounded only by the per-job deadline
			return 0, ctx.Err()
		})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if got := atomic.LoadInt32(&attempts); got != 2 { // timeout is retried like any failure
		t.Fatalf("ran %d attempts, want 2", got)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("two 20ms-bounded attempts took %v", e)
	}
}

func TestBackoffAbortsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var attempts int32
	done := make(chan error, 1)
	go func() {
		_, err := Map(ctx, Config{Workers: 1, Retries: 10, RetryBackoff: time.Hour}, 1,
			func(_ context.Context, _ int) (int, error) {
				atomic.AddInt32(&attempts, 1)
				return 0, errors.New("always")
			})
		done <- err
	}()
	for atomic.LoadInt32(&attempts) == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel() // the worker is asleep in the hour-long backoff
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("campaign succeeded despite failing job")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("backoff ignored cancellation")
	}
	if got := atomic.LoadInt32(&attempts); got != 1 {
		t.Fatalf("ran %d attempts, want 1", got)
	}
}

type trialResult struct {
	Job   int     `json:"job"`
	Value float64 `json:"value"`
}

func TestJournalRestoresAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	// First run: jobs 0 and 2 complete, the campaign dies before job 1.
	for _, job := range []int{0, 2} {
		if err := j.Record(job, trialResult{Job: job, Value: 0.1 * float64(job)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 2 {
		t.Fatalf("reopened journal holds %d records, want 2", j2.Len())
	}
	var computed int32
	res, err := Map(context.Background(), Config{Workers: 2, Journal: j2}, 3,
		func(_ context.Context, job int) (trialResult, error) {
			atomic.AddInt32(&computed, 1)
			return trialResult{Job: job, Value: 0.1 * float64(job)}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&computed); got != 1 {
		t.Fatalf("recomputed %d jobs, want only the missing one", got)
	}
	for job, want := range []float64{0, 0.1, 0.2} {
		if res[job].Job != job || res[job].Value != want {
			t.Fatalf("job %d restored as %+v", job, res[job])
		}
	}
}

func TestJournalToleratesTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "truncated.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record(0, trialResult{Job: 0, Value: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Record(1, trialResult{Job: 1, Value: 2}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Chop the file mid-record, as a crash during the final append would.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("truncated journal rejected: %v", err)
	}
	defer j2.Close()
	if j2.Len() != 1 {
		t.Fatalf("truncated journal holds %d records, want 1", j2.Len())
	}
	var res trialResult
	if ok, err := j2.Restore(0, &res); !ok || err != nil || res.Value != 1 {
		t.Fatalf("intact record lost: ok=%v err=%v res=%+v", ok, err, res)
	}
	if ok, _ := j2.Restore(1, &res); ok {
		t.Fatal("truncated record restored")
	}
	// The affected job is recomputed and re-appended cleanly.
	if err := j2.Record(1, trialResult{Job: 1, Value: 2}); err != nil {
		t.Fatal(err)
	}
}

// TestJournalReopenAfterTornTail: records appended after a torn tail must
// survive the next reopen, not sit behind a line that never parses.
func TestJournalReopenAfterTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for job := 0; job < 2; job++ {
		if err := j.Record(job, trialResult{Job: job, Value: 1}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for job := 1; job < 3; job++ {
		if err := j2.Record(job, trialResult{Job: job, Value: 1}); err != nil {
			t.Fatal(err)
		}
	}
	j2.Close()
	j3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.Len() != 3 {
		t.Fatalf("reopened journal holds %d records, want 3", j3.Len())
	}
}

// TestJournalEveryByteFlip flips every byte of a 3-record journal, by XOR
// 0x01 and by overwriting it with a newline. Each reopen must either
// restore all 3 records or quarantine the damaged file and keep exactly the
// records that restore correctly (the rest are recomputed) — never lose a
// record with nothing moved aside.
func TestJournalEveryByteFlip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "flip.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for job := 0; job < 3; job++ {
		if err := j.Record(job, trialResult{Job: job, Value: float64(job) + 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []struct {
		name string
		fn   func(byte) byte
	}{
		{"xor01", func(b byte) byte { return b ^ 0x01 }},
		{"newline", func(byte) byte { return '\n' }},
	} {
		for off := range orig {
			os.Remove(path + ".quarantine")
			data := append([]byte{}, orig...)
			data[off] = sub.fn(data[off])
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			re, err := OpenJournal(path)
			if err != nil {
				t.Fatalf("%s@%d: %v", sub.name, off, err)
			}
			for job := 0; job < 3; job++ {
				var res trialResult
				ok, err := re.Restore(job, &res)
				if err != nil || (ok && res != (trialResult{Job: job, Value: float64(job) + 0.5})) {
					t.Fatalf("%s@%d: job %d restored as %+v (%v)", sub.name, off, job, res, err)
				}
			}
			if re.Len() < 3 {
				if q, err := os.ReadFile(path + ".quarantine"); err != nil || !bytes.Equal(q, data) {
					t.Fatalf("%s@%d: %d of 3 records kept and the damaged journal not quarantined",
						sub.name, off, re.Len())
				}
			}
			re.Close()
		}
	}
}

// TestLegacyJournalUpgrade opens a journal in the unframed encoding that
// predates bankaware.log/v1: every record restores, and the file is framed
// afterwards.
func TestLegacyJournalUpgrade(t *testing.T) {
	legacy, err := os.ReadFile("testdata/legacy.journal")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "legacy.journal")
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for job, want := range []float64{0.25, 0.5, 0.75} {
		var res trialResult
		if ok, err := j.Restore(job, &res); !ok || err != nil || res != (trialResult{Job: job, Value: want}) {
			t.Fatalf("job %d: ok=%v err=%v res=%+v", job, ok, err, res)
		}
	}
	j.Close()
	framed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(framed) <= len(legacy) || framed[0] == '{' || !bytes.Contains(framed, bytes.SplitAfter(legacy, []byte("\n"))[0]) {
		t.Fatalf("journal not framed after upgrade: %q", framed)
	}
}

// Records returns the held results of a range in job order, as the bytes
// recorded, and names the first job of the range it lacks.
func TestJournalRecords(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), "records.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.RecordBatch(2, []json.RawMessage{json.RawMessage(`{"v":2}`), json.RawMessage(`{"v":3}`)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Record(5, trialResult{Job: 5, Value: 0.5}); err != nil {
		t.Fatal(err)
	}
	got, err := j.Records(2, 4)
	if err != nil || len(got) != 2 || string(got[0]) != `{"v":2}` || string(got[1]) != `{"v":3}` {
		t.Fatalf("Records(2, 4) = %q, %v", got, err)
	}
	if got, err := j.Records(2, 6); err == nil || !strings.Contains(err.Error(), "lacks job 4 ") {
		t.Fatalf("Records(2, 6) = %q, %v; want an error naming job 4", got, err)
	}
}

func TestJournalSchemaChangeRecomputes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "schema.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Record(0, "a string result"); err != nil {
		t.Fatal(err)
	}
	var computed int32
	res, err := Map(context.Background(), Config{Workers: 1, Journal: j}, 1,
		func(_ context.Context, job int) (trialResult, error) {
			atomic.AddInt32(&computed, 1)
			return trialResult{Job: job, Value: 9}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if computed != 1 || res[0].Value != 9 {
		t.Fatalf("mismatched record not recomputed: computed=%d res=%+v", computed, res[0])
	}
}

// FuzzJournal opens a unit journal over arbitrary bytes: the input's lines,
// each framed with a valid checksum when framed is set (so the fuzzer
// reaches the record decoder rather than the CRC), or the raw bytes
// otherwise. OpenJournal must never panic. It either fails with an error,
// or opens with records that a second open restores identically.
func FuzzJournal(f *testing.F) {
	seed := filepath.Join(f.TempDir(), "seed.journal")
	j, err := OpenJournal(seed)
	if err != nil {
		f.Fatal(err)
	}
	for job := 0; job < 3; job++ {
		if err := j.Record(job, trialResult{Job: job, Value: float64(job) + 0.5}); err != nil {
			f.Fatal(err)
		}
	}
	j.Close()
	framed, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	legacy, err := os.ReadFile("testdata/legacy.journal")
	if err != nil {
		f.Fatal(err)
	}
	var payloads [][]byte
	for _, line := range bytes.Split(bytes.TrimSuffix(framed, []byte("\n")), []byte("\n")) {
		payloads = append(payloads, line[9:])
	}
	f.Add(framed, false)
	f.Add(legacy, false)
	f.Add(bytes.Join(payloads, []byte("\n")), true)
	f.Add([]byte(`{"job":1}`+"\n"+`{"job":1,"result":null}`), true)
	f.Fuzz(func(t *testing.T, data []byte, frame bool) {
		path := filepath.Join(t.TempDir(), "fuzz.journal")
		if frame {
			log, err := atomicio.OpenLog(path, func([]byte) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			if err := log.Append(bytes.Split(data, []byte("\n")), false); err != nil {
				t.Fatal(err)
			}
			log.Close()
		} else if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		first, err := OpenJournal(path)
		if err != nil {
			return
		}
		first.Close()
		again, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("reopening a journal that opened: %v", err)
		}
		defer again.Close()
		if len(again.done) != len(first.done) {
			t.Fatalf("second open holds %d records, first %d", len(again.done), len(first.done))
		}
		for job, raw := range first.done {
			if got, ok := again.done[job]; !ok || !bytes.Equal(got, raw) {
				t.Fatalf("job %d reopened as %q, first %q", job, got, raw)
			}
		}
	})
}
