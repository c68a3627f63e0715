package service

import (
	"runtime"
	"sync"

	"bankaware/internal/metrics"
)

// Intake-hook stages (Config.IntakeHook): the batch-commit boundary from
// both sides. A hook returning an error at HookBeforeCommit fails the
// batch before any byte is written; at HookAfterCommit the records are
// already durable and registered, so the error reaches the waiting
// submitters but the jobs survive a restart — the injection points the
// crash-recovery tests drive.
const (
	HookBeforeCommit = "before-commit"
	HookAfterCommit  = "after-commit"
)

// maxBatch bounds how many intake records share one fsync. Large enough
// that the queue capacity, not the batch size, is the practical limit;
// small enough that one commit's encode buffer stays modest.
const maxBatch = 1024

// batchReq is one submission waiting for its group commit.
type batchReq struct {
	rec JobRecord
	err chan error // buffered(1); exactly one reply per request
}

// batcher is the group-commit intake path: submissions enqueue a record,
// a single goroutine coalesces everything that accumulated while the
// previous batch was fsyncing into the next batch, commits it with one
// job-log append + fsync (Store.Put), and fans the outcome back to
// every waiting submitter. Under concurrent load the fsync cost amortises
// across the whole batch; a lone submission still pays exactly one fsync,
// same as the old per-submit path.
type batcher struct {
	store *Store
	hook  func(stage string, jobs int) error

	mu      sync.Mutex
	pending []batchReq
	closed  bool

	kick chan struct{} // buffered(1): "pending is non-empty"
	quit chan struct{}
	done chan struct{}

	batches *metrics.Counter // committed batches, one intake fsync each
	coleft  *metrics.Counter // records that rode a batch they didn't start
}

func newBatcher(store *Store, hook func(stage string, jobs int) error, reg *metrics.Registry) *batcher {
	b := &batcher{
		store:   store,
		hook:    hook,
		kick:    make(chan struct{}, 1),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
		batches: reg.Counter("service.intake_batches"),
		coleft:  reg.Counter("service.intake_coalesced"),
	}
	go b.run()
	return b
}

// put blocks until the batch containing rec is durable (or the batcher
// shut down) and returns the commit outcome.
func (b *batcher) put(rec JobRecord) error {
	req := batchReq{rec: rec, err: make(chan error, 1)}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrDraining
	}
	b.pending = append(b.pending, req)
	b.mu.Unlock()
	select {
	case b.kick <- struct{}{}:
	default:
	}
	// The run loop answers every request it has seen — from commit or from
	// the shutdown sweep — so this receive cannot leak.
	return <-req.err
}

// stop shuts the batcher down: no new requests are accepted, requests not
// yet committed fail with ErrDraining, and stop returns once the run loop
// exited.
func (b *batcher) stop() {
	b.mu.Lock()
	wasClosed := b.closed
	b.closed = true
	b.mu.Unlock()
	if !wasClosed {
		close(b.quit)
	}
	<-b.done
}

func (b *batcher) run() {
	defer close(b.done)
	for {
		select {
		case <-b.quit:
			b.sweep()
			return
		case <-b.kick:
		}
		for {
			// Let every runnable submitter enqueue before the batch is
			// collected. Without this the loop grabs whatever trickled in
			// during the previous fan-out and commits a near-empty batch,
			// paying one fsync per submission or two under load — exactly
			// what group commit exists to avoid. One yield costs ~a
			// microsecond; a wasted fsync costs hundreds.
			runtime.Gosched()
			b.mu.Lock()
			batch := b.pending
			b.pending = nil
			b.mu.Unlock()
			if len(batch) == 0 {
				break
			}
			for len(batch) > 0 {
				n := len(batch)
				if n > maxBatch {
					n = maxBatch
				}
				b.commit(batch[:n])
				batch = batch[n:]
			}
		}
	}
}

// sweep fails every request that raced shutdown.
func (b *batcher) sweep() {
	b.mu.Lock()
	pending := b.pending
	b.pending = nil
	b.mu.Unlock()
	for _, req := range pending {
		req.err <- ErrDraining
	}
}

// commit durably writes one batch and fans the outcome out.
func (b *batcher) commit(batch []batchReq) {
	var err error
	if b.hook != nil {
		err = b.hook(HookBeforeCommit, len(batch))
	}
	if err == nil {
		recs := make([]JobRecord, len(batch))
		for i, req := range batch {
			recs[i] = req.rec
		}
		err = b.store.Put(recs...)
	}
	if err == nil {
		b.batches.Inc()
		b.coleft.Add(uint64(len(batch) - 1))
		if b.hook != nil {
			// After-commit failures reach the submitters, but the records
			// are durable: a restart recovers and runs the jobs (and
			// spec-hash dedup folds any client retry onto them).
			err = b.hook(HookAfterCommit, len(batch))
		}
	}
	for _, req := range batch {
		req.err <- err
	}
}
