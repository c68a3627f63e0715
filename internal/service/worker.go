package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"bankaware/internal/runner"
)

// Worker lifecycle hook stages (WorkerConfig.OnShard).
const (
	// WorkerShardStart fires after a lease is granted, before execution.
	WorkerShardStart = "start"
	// WorkerShardUpload fires after the shard's unit results are accepted.
	WorkerShardUpload = "upload"
	// WorkerShardAbandon fires when the worker loses its lease (a renew was
	// rejected) or fails the shard back to the coordinator.
	WorkerShardAbandon = "abandon"
)

// ErrLeaseLost is the error a shard execution unwinds with once the
// coordinator rejects a renewal: the lease expired and the shard belongs
// to someone else now.
var ErrLeaseLost = errors.New("service: lease lost")

// WorkerConfig parametrises a pulling Worker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string
	// Name identifies this worker in lease bookkeeping; required.
	Name string
	// Dir holds the worker's shard checkpoint: the unit journal of the
	// range it is running, or of the last range it left unfinished, named
	// by (spec hash, unit range). The worker owns the dir; each grant
	// removes the checkpoints of other ranges. Empty disables journalling
	// (a re-leased shard then restarts from its first unit).
	Dir string
	// Workers bounds the fan-out within one shard; zero selects GOMAXPROCS.
	Workers int
	// Poll is the idle sleep between lease attempts when the coordinator
	// has no work. Default 250ms.
	Poll time.Duration
	// OnShard, when non-nil, observes shard lifecycle stages (logging,
	// chaos-test instrumentation: the e2e kill test uses the start stage to
	// SIGKILL a worker mid-shard).
	OnShard func(stage string, g *ShardGrant)
	// Progress, when non-nil, observes engine events of shard execution.
	Progress runner.ProgressFunc
}

func (c WorkerConfig) poll() time.Duration {
	if c.Poll > 0 {
		return c.Poll
	}
	return 250 * time.Millisecond
}

// workerClient carries every worker request to the coordinator.
var workerClient = &http.Client{Timeout: 5 * time.Minute}

// Worker is one pulling execution daemon: it leases shards from a
// coordinator, executes them unit by unit with a checkpoint journal,
// renews its lease while computing, and uploads the unit results. Every
// worker computes identical bytes for the same shard, so the coordinator
// may hand any shard to any worker in any order.
type Worker struct {
	cfg    WorkerConfig
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	killed atomic.Bool

	mu      sync.Mutex
	started bool
}

// NewWorker validates the config and assembles a stopped Worker; call
// Start to begin pulling.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, errors.New("service: worker needs a coordinator URL")
	}
	if cfg.Name == "" {
		return nil, errors.New("service: worker needs a name")
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("service: worker dir: %w", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Worker{cfg: cfg, ctx: ctx, cancel: cancel}, nil
}

// Start launches the pull loop. It is an error to start twice.
func (w *Worker) Start() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.started {
		return errors.New("service: worker already started")
	}
	w.started = true
	w.wg.Add(1)
	go w.loop()
	return nil
}

// Close stops the worker gracefully: the pull loop exits, an in-flight
// shard is interrupted and failed back to the coordinator so its lease
// releases immediately instead of waiting out the TTL. The shard journal
// survives, so a worker on the same dir whose next lease is that range
// resumes the finished units.
func (w *Worker) Close() error {
	w.cancel()
	w.wg.Wait()
	return nil
}

// Kill stops the worker abruptly — the in-process stand-in for SIGKILL
// that the chaos tests rely on. The in-flight shard is abandoned without
// any farewell to the coordinator: no fail, no upload, nothing. The
// coordinator only learns of the death when the lease expires, at which
// point the shard re-queues for another worker.
func (w *Worker) Kill() {
	w.killed.Store(true)
	w.cancel()
	w.wg.Wait()
}

// loop pulls shards until the worker stops.
func (w *Worker) loop() {
	defer w.wg.Done()
	for {
		if w.ctx.Err() != nil {
			return
		}
		grant, ok, err := w.lease()
		if err != nil || !ok {
			// Coordinator unreachable or idle: back off and retry. The
			// lease protocol is stateless on the worker side, so a dropped
			// request costs nothing.
			select {
			case <-w.ctx.Done():
				return
			case <-time.After(w.cfg.poll()):
			}
			continue
		}
		w.runShard(grant)
	}
}

// runShard executes one granted shard end to end.
func (w *Worker) runShard(g *ShardGrant) {
	if w.cfg.OnShard != nil {
		w.cfg.OnShard(WorkerShardStart, g)
	}
	// The renewal heartbeat keeps the lease alive while units execute; it
	// cancels shardCtx if the coordinator rejects a renewal (the lease
	// expired — likely a long GC pause or partition — and the shard may
	// already be re-leased, so keeping on computing would be wasted work).
	shardCtx, stopShard := context.WithCancel(w.ctx)
	defer stopShard()
	lost := &atomic.Bool{}
	renewDone := make(chan struct{})
	go func() {
		defer close(renewDone)
		ttl := time.Duration(g.TTLMS) * time.Millisecond
		tick := time.NewTicker(ttl / 3)
		defer tick.Stop()
		for {
			select {
			case <-shardCtx.Done():
				return
			case <-tick.C:
				if err := w.renew(g); err != nil && !isTransport(err) {
					lost.Store(true)
					stopShard()
					return
				}
			}
		}
	}()

	units, err := w.executeUnits(shardCtx, g)
	stopShard()
	<-renewDone

	switch {
	case w.killed.Load():
		// SIGKILL semantics: vanish. The lease expires on its own and the
		// journal stays for whoever resumes the shard.
		return
	case lost.Load():
		// The coordinator disowned us; any upload would be redundant (the
		// shard re-queued and determinism makes the next worker's bytes
		// identical). Keep the journal: we may re-lease this very shard.
		if w.cfg.OnShard != nil {
			w.cfg.OnShard(WorkerShardAbandon, g)
		}
		return
	case err != nil:
		// Graceful failure (execution error or worker shutdown): hand the
		// lease back so the shard re-queues without waiting out the TTL.
		w.fail(g, err)
		if w.cfg.OnShard != nil {
			w.cfg.OnShard(WorkerShardAbandon, g)
		}
		return
	}
	if err := w.complete(g, units); err != nil {
		// Upload rejected or lost: the lease will expire and the shard will
		// re-run elsewhere. The journal makes a local retry cheap.
		if w.cfg.OnShard != nil {
			w.cfg.OnShard(WorkerShardAbandon, g)
		}
		return
	}
	w.removeJournal(g)
	if w.cfg.OnShard != nil {
		w.cfg.OnShard(WorkerShardUpload, g)
	}
}

// journalPath names the shard checkpoint by what it holds: units
// [From, To) of the spec with g.Spec's content hash. A unit is a pure
// function of (spec, index), so whatever lease, job ID, coordinator store
// or shard plan granted the range, a checkpoint is restored only into a
// range whose units are the same bytes, and a re-leased shard resumes its
// predecessor attempt's completed units.
func (w *Worker) journalPath(g *ShardGrant) string {
	return filepath.Join(w.cfg.Dir, fmt.Sprintf("%s-%d-%d.journal", SpecHash(g.Spec), g.From, g.To))
}

func (w *Worker) removeJournal(g *ShardGrant) {
	if w.cfg.Dir != "" {
		os.Remove(w.journalPath(g))
	}
}

// executeUnits computes the granted unit range, checkpointing per unit.
// The worker keeps one checkpoint, of the range it is running, so every
// other journal under Dir is removed before the grant's opens: a range
// the worker left unfinished is often never granted to it again (it
// finished elsewhere, its job ended, or a re-plan moved its bounds).
// Quarantined journals stay as evidence. A failed listing or removal
// costs only space, so it is not reported.
func (w *Worker) executeUnits(ctx context.Context, g *ShardGrant) ([]json.RawMessage, error) {
	opt := shardOptions{Workers: w.cfg.Workers, Progress: w.cfg.Progress}
	if w.cfg.Dir != "" {
		path := w.journalPath(g)
		entries, _ := os.ReadDir(w.cfg.Dir)
		for _, e := range entries {
			if old := filepath.Join(w.cfg.Dir, e.Name()); old != path && filepath.Ext(old) == ".journal" {
				os.Remove(old)
			}
		}
		journal, err := runner.OpenJournal(path)
		if err != nil {
			return nil, err
		}
		defer journal.Close()
		opt.Journal = journal
	}
	return executeShardUnits(ctx, g.Spec, g.From, g.To, opt)
}

// --- coordinator HTTP client ---

// transportError wraps failures to reach the coordinator, as opposed to
// the coordinator's own verdicts.
type transportError struct{ err error }

func (e *transportError) Error() string { return e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

func isTransport(err error) bool {
	var te *transportError
	return errors.As(err, &te)
}

// statusError carries a non-2xx coordinator verdict with its status code,
// so the retry policy can tell a transient 5xx (retry) from a definitive
// 4xx (don't: the coordinator understood the request and said no).
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

// retryable reports whether err is worth another attempt: the coordinator
// was unreachable (transport) or answered with a server-side failure (5xx).
// Context cancellation is terminal even though it surfaces as a transport
// error — the backoff select notices it immediately.
func retryable(err error) bool {
	if isTransport(err) {
		return true
	}
	var se *statusError
	return errors.As(err, &se) && se.code >= 500
}

// postRetry runs post with capped exponential backoff plus jitter on
// retryable failures, bounded by budget so a dead coordinator cannot pin a
// call (or starve the lease-renewal cadence) indefinitely. out, when
// non-nil, is reset before every attempt so a half-written response from a
// failed attempt never prefixes the next one.
func (w *Worker) postRetry(path string, body any, out *bytes.Buffer, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	delay := 50 * time.Millisecond
	const maxDelay = 2 * time.Second
	for {
		if out != nil {
			out.Reset()
		}
		var err error
		if out != nil {
			err = w.post(path, body, out)
		} else {
			err = w.post(path, body, nil)
		}
		if err == nil || !retryable(err) {
			return err
		}
		sleep := delay + time.Duration(rand.Int63n(int64(delay/2)+1))
		if time.Now().Add(sleep).After(deadline) {
			return err
		}
		select {
		case <-w.ctx.Done():
			return err
		case <-time.After(sleep):
		}
		if delay *= 2; delay > maxDelay {
			delay = maxDelay
		}
	}
}

// post sends one JSON body and decodes the response envelope. A non-2xx
// status returns the server's error message as a statusError; failure to
// reach the server returns a transportError.
func (w *Worker) post(path string, body any, out io.Writer) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(w.ctx, http.MethodPost,
		w.cfg.Coordinator+path, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := workerClient.Do(req)
	if err != nil {
		return &transportError{err}
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		return nil
	}
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return &statusError{code: resp.StatusCode, msg: fmt.Sprintf(
			"service: coordinator %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))}
	}
	if out != nil {
		if _, err := io.Copy(out, io.LimitReader(resp.Body, maxSpecBytes+maxShardAckBytes)); err != nil {
			return &transportError{err}
		}
	}
	return nil
}

// lease asks for one shard; ok is false when the coordinator is idle. A
// coordinator mid-restart gets a few quick retries before the pull loop
// falls back to its poll sleep.
func (w *Worker) lease() (*ShardGrant, bool, error) {
	var buf bytes.Buffer
	err := w.postRetry("/v1/work/lease", &LeaseRequest{Worker: w.cfg.Name}, &buf, 4*w.cfg.poll())
	if err != nil {
		return nil, false, err
	}
	if buf.Len() == 0 {
		return nil, false, nil // 204: no work
	}
	g, err := DecodeShardGrant(&buf)
	if err != nil {
		return nil, false, err
	}
	return g, true, nil
}

// renew extends the held lease. Its retry budget is a quarter of the TTL —
// under the TTL/3 heartbeat cadence — so a slow coordinator can be retried
// without one renewal's backoff starving the next tick.
func (w *Worker) renew(g *ShardGrant) error {
	ttl := time.Duration(g.TTLMS) * time.Millisecond
	return w.postRetry("/v1/work/renew",
		&ShardAck{Job: g.Job, Shard: g.Shard, Lease: g.Lease}, nil, ttl/4)
}

func (w *Worker) fail(g *ShardGrant, cause error) error {
	// The worker context may already be cancelled (graceful Close); the
	// farewell gets its own short deadline so shutdown never hangs on it.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ack := ShardAck{Job: g.Job, Shard: g.Shard, Lease: g.Lease, Error: cause.Error()}
	data, err := json.Marshal(&ack)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		w.cfg.Coordinator+"/v1/work/fail", bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := workerClient.Do(req)
	if err != nil {
		return &transportError{err}
	}
	resp.Body.Close()
	return nil
}

// complete uploads the shard's results with the payload hash the
// coordinator verifies before storing. The upload is retried for a full
// lease TTL: completion needs a lease the coordinator granted for the
// shard, not the live one, so even an upload that lands after expiry is
// accepted. A lease from before a coordinator restart gets a 409, and a
// corrupt-in-transit upload a 422; neither is retried (the checkpoint
// stays until the worker runs another range, and a suspect buffer is not
// sent twice).
func (w *Worker) complete(g *ShardGrant, units []json.RawMessage) error {
	return w.postRetry("/v1/work/complete",
		&ShardUpload{Job: g.Job, Shard: g.Shard, Lease: g.Lease,
			Units: units, Sum: unitsSum(units)}, nil,
		time.Duration(g.TTLMS)*time.Millisecond)
}
