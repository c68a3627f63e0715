package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"bankaware/internal/metrics"
	"bankaware/internal/runner"
)

// Coordinator-mode errors, mapped onto HTTP statuses by the /v1/work
// handlers.
var (
	// ErrNotCoordinator is returned by the work endpoints of a daemon that
	// was not started with Config.Coordinator.
	ErrNotCoordinator = errors.New("service: not a coordinator")
	// ErrUnknownLease rejects a renew/fail naming a lease the coordinator no
	// longer recognises (expired and re-granted, or the shard completed).
	// The worker's correct response is to abandon the shard.
	ErrUnknownLease = errors.New("service: unknown or superseded lease")
	// ErrUnknownShard rejects work messages naming a job or shard the
	// coordinator is not distributing.
	ErrUnknownShard = errors.New("service: unknown job or shard")
	// ErrBadUpload rejects a complete whose unit count does not match the
	// shard's planned range.
	ErrBadUpload = errors.New("service: upload does not match shard range")
	// ErrCorruptUpload rejects a complete whose payload does not hash to its
	// declared sum — the bytes were damaged between the worker computing
	// them and the coordinator receiving them. The shard re-leases; the
	// worker should not retry the same buffer.
	ErrCorruptUpload = errors.New("service: upload payload does not match its declared hash")
)

// EventShard is the SSE event type announcing shard lease transitions on a
// distributed job's stream.
const EventShard = "shard"

// shardEvent is the payload of EventShard frames.
type shardEvent struct {
	Shard    int    `json:"shard"`
	State    string `json:"state"` // leased | requeued | done
	Worker   string `json:"worker,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Detail   string `json:"detail,omitempty"`
}

// ShardStatus is one shard's public state (GET /v1/jobs/{id}/shards).
type ShardStatus struct {
	Shard int    `json:"shard"`
	From  int    `json:"from"`
	To    int    `json:"to"`
	State string `json:"state"`
	// Worker holds the leaseholder (leased) or the completing worker (done).
	Worker   string `json:"worker,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	// ExpiresMS is how long the current lease has left, for leased shards.
	ExpiresMS int64 `json:"expiresMs,omitempty"`
}

// shardSet is one distributed job in flight: its durable shard state plus
// the coordination signals runDistributed waits on. All fields past the
// immutable header are guarded by the coordinator's mutex.
type shardSet struct {
	jb   *job
	spec JobSpec
	dir  *shardDir

	done    int           // shards completed
	failed  error         // permanent failure, set before settled closes
	settled chan struct{} // closed once done == len(plan.Shards) or failed
}

// coordinator owns every in-flight distributed job's lease table. A single
// mutex serialises lease traffic; grants, renewals, uploads and expiry
// scans are all short critical sections over in-memory maps plus one
// synced WAL append.
type coordinator struct {
	s *Service

	mu    sync.Mutex
	sets  map[string]*shardSet
	order []string // lease scan order: registration (submission) order

	leases  *metrics.Counter
	expired *metrics.Counter
	uploads *metrics.Counter
	corrupt *metrics.Counter
}

func newCoordinator(s *Service) *coordinator {
	return &coordinator{
		s:       s,
		sets:    make(map[string]*shardSet),
		leases:  s.reg.Counter("service.shard_leases"),
		expired: s.reg.Counter("service.shard_lease_expiries"),
		uploads: s.reg.Counter("service.shard_uploads"),
		corrupt: s.reg.Counter("service.shard_corrupt_uploads"),
	}
}

// leaseTTL resolves the configured lease time-to-live.
func (c Config) leaseTTL() time.Duration {
	if c.LeaseTTL > 0 {
		return c.LeaseTTL
	}
	return 15 * time.Second
}

// maxShardAttempts bounds lease grants per shard before the job fails
// permanently (a shard that crashes every worker it lands on).
const maxShardAttempts = 5

// runDistributed executes one job in coordinator mode: shard the campaign,
// serve leases to pulling workers, journal every accepted upload, and once
// every shard is done return the campaign's units from the journal. It
// replaces local unit execution — the coordinator itself never simulates.
// The job context governs the wait: cancellation (drain, user cancel,
// timeout) detaches the job, and a drained job resumes from its journaled
// units on the next boot, in either mode.
func (s *Service) runDistributed(ctx context.Context, jb *job, units *runner.Journal) ([]json.RawMessage, error) {
	dir, err := openShardDir(s.store.shardDirPath(jb.id), units, func() shardPlan {
		return planShards(jb.id, campaignUnits(jb.spec), s.cfg.ShardUnits)
	})
	if err != nil {
		return nil, err
	}
	defer dir.wal.Close()
	set := &shardSet{jb: jb, spec: jb.spec, dir: dir, settled: make(chan struct{})}

	c := s.coord
	c.mu.Lock()
	// Resume: count the shards the journal already completes.
	for _, span := range dir.plan.Shards {
		if dir.state(span.Index).State == ShardDone {
			set.done++
		}
	}
	if set.done == len(dir.plan.Shards) {
		close(set.settled)
	} else {
		c.sets[jb.id] = set
		c.order = append(c.order, jb.id)
	}
	c.mu.Unlock()

	// The expiry scan doubles as the job's heartbeat: overdue leases
	// re-queue even when no worker is pulling (so nothing depends on lease
	// traffic to notice a dead worker).
	ticker := time.NewTicker(s.cfg.leaseTTL() / 2)
	defer ticker.Stop()
	defer c.unregister(jb.id)
	for {
		select {
		case <-set.settled:
			if set.failed != nil {
				return nil, set.failed
			}
			return dir.journaledUnits()
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-ticker.C:
			c.expireOverdue(set, time.Now())
		}
	}
}

// unregister drops a job from the lease scan (idempotent).
func (c *coordinator) unregister(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropLocked(id)
}

// dropLocked removes a job from the lease table and its scan order, if it
// is there. Callers hold c.mu.
func (c *coordinator) dropLocked(id string) {
	if _, ok := c.sets[id]; !ok {
		return
	}
	delete(c.sets, id)
	for i, o := range c.order {
		if o == id {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
}

// expireOverdue re-queues every overdue lease of one set, failing the job
// once a shard exhausts its attempt budget.
func (c *coordinator) expireOverdue(set *shardSet, now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sets[set.jb.id] != set {
		return // settled or unregistered concurrently
	}
	for _, span := range set.dir.plan.Shards {
		st := set.dir.state(span.Index)
		if st.State != ShardLeased || now.UnixNano() < st.DeadlineNS {
			continue
		}
		c.expired.Inc()
		if st.Attempts >= maxShardAttempts {
			c.failLocked(set, fmt.Errorf(
				"service: shard %d failed %d lease attempts (last worker %q)",
				span.Index, st.Attempts, st.Worker))
			return
		}
		set.dir.log(shardWALRecord{Shard: span.Index, State: ShardPending, Attempts: st.Attempts})
		set.jb.hub.publish(EventShard, shardEvent{
			Shard: span.Index, State: "requeued", Worker: st.Worker,
			Attempts: st.Attempts, Detail: "lease expired",
		})
	}
}

// failLocked settles a set with a permanent error. Callers hold c.mu.
func (c *coordinator) failLocked(set *shardSet, err error) {
	set.failed = err
	c.dropLocked(set.jb.id)
	close(set.settled)
}

// Lease grants the next available shard to worker, scanning jobs in
// submission order. ok is false when no work is available (the worker
// should poll again later). Overdue leases encountered during the scan are
// re-queued first, so a crashed worker's shard is stolen on the next pull
// rather than only on the next expiry tick.
func (s *Service) Lease(worker string) (*ShardGrant, bool, error) {
	if s.coord == nil {
		return nil, false, ErrNotCoordinator
	}
	c := s.coord
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	// Snapshot the scan order: failLocked edits c.order mid-scan when a
	// shard exhausts its budget.
	order := append([]string(nil), c.order...)
	for _, id := range order {
		set, ok := c.sets[id]
		if !ok {
			continue // settled while scanning
		}
		for _, span := range set.dir.plan.Shards {
			st := set.dir.state(span.Index)
			if st.State == ShardLeased && now.UnixNano() >= st.DeadlineNS {
				// Lazy expiry: steal the overdue lease right now.
				c.expired.Inc()
				set.jb.hub.publish(EventShard, shardEvent{
					Shard: span.Index, State: "requeued", Worker: st.Worker,
					Attempts: st.Attempts, Detail: "lease expired",
				})
				st.State = ShardPending
			}
			if st.State != ShardPending {
				continue
			}
			attempts := st.Attempts + 1
			if attempts > maxShardAttempts {
				c.failLocked(set, fmt.Errorf(
					"service: shard %d failed %d lease attempts (last worker %q)",
					span.Index, st.Attempts, st.Worker))
				break // next job; this one just settled
			}
			ttl := c.s.cfg.leaseTTL()
			lease := fmt.Sprintf("%s/s%d/a%d", id, span.Index, attempts)
			if err := set.dir.log(shardWALRecord{
				Shard: span.Index, State: ShardLeased, Worker: worker,
				Lease: lease, DeadlineNS: leaseDeadline(now, ttl), Attempts: attempts,
			}); err != nil {
				return nil, false, err
			}
			c.leases.Inc()
			set.jb.hub.publish(EventShard, shardEvent{
				Shard: span.Index, State: "leased", Worker: worker, Attempts: attempts,
			})
			return &ShardGrant{
				Job: id, Shard: span.Index, From: span.From, To: span.To,
				Units: set.dir.plan.Units, Spec: set.spec,
				Lease: lease, TTLMS: ttl.Milliseconds(),
			}, true, nil
		}
	}
	return nil, false, nil
}

// lookup resolves an ack's (job, shard, lease) against the live lease
// table. Callers hold c.mu.
func (c *coordinator) lookup(job string, shard int, lease string) (*shardSet, shardWALRecord, error) {
	set, ok := c.sets[job]
	if !ok {
		return nil, shardWALRecord{}, ErrUnknownShard
	}
	if shard >= len(set.dir.plan.Shards) {
		return nil, shardWALRecord{}, ErrUnknownShard
	}
	st := set.dir.state(shard)
	if st.State != ShardLeased || st.Lease != lease {
		return nil, shardWALRecord{}, ErrUnknownLease
	}
	return set, st, nil
}

// Renew extends a held lease by one TTL from now. A renewal naming a
// superseded lease fails with ErrUnknownLease — the worker lost the shard
// (it expired and was stolen) and must abandon it.
func (s *Service) Renew(a *ShardAck) error {
	if s.coord == nil {
		return ErrNotCoordinator
	}
	c := s.coord
	c.mu.Lock()
	defer c.mu.Unlock()
	set, st, err := c.lookup(a.Job, a.Shard, a.Lease)
	if err != nil {
		return err
	}
	st.DeadlineNS = leaseDeadline(time.Now(), s.cfg.leaseTTL())
	return set.dir.log(st)
}

// FailShard releases a lease after a worker-side error, re-queueing the
// shard immediately (graceful worker shutdown, execution failure). The
// attempt stays counted; a shard that keeps failing exhausts its budget
// and fails the job.
func (s *Service) FailShard(a *ShardAck) error {
	if s.coord == nil {
		return ErrNotCoordinator
	}
	c := s.coord
	c.mu.Lock()
	defer c.mu.Unlock()
	set, st, err := c.lookup(a.Job, a.Shard, a.Lease)
	if err != nil {
		return err
	}
	if st.Attempts >= maxShardAttempts {
		c.failLocked(set, fmt.Errorf(
			"service: shard %d failed %d attempts: %s", a.Shard, st.Attempts, a.Error))
		return nil
	}
	if err := set.dir.log(shardWALRecord{Shard: a.Shard, State: ShardPending, Attempts: st.Attempts}); err != nil {
		return err
	}
	set.jb.hub.publish(EventShard, shardEvent{
		Shard: a.Shard, State: "requeued", Worker: st.Worker,
		Attempts: st.Attempts, Detail: a.Error,
	})
	return nil
}

// CompleteShard accepts one shard's unit results and appends them to the
// job's unit journal with one synced write. Completion is
// idempotent and — deliberately — not gated on holding the live lease:
// every unit is a pure function of (spec, index), so any structurally
// valid upload for a not-yet-done shard carries the correct bytes, even
// from a worker whose lease expired mid-upload. The only structural gate
// is the unit count matching the planned range. If the shard was re-leased
// meanwhile, the usurped worker's next renew fails and it abandons.
func (s *Service) CompleteShard(u *ShardUpload) error {
	if s.coord == nil {
		return ErrNotCoordinator
	}
	c := s.coord
	c.mu.Lock()
	defer c.mu.Unlock()
	set, ok := c.sets[u.Job]
	if !ok {
		return ErrUnknownShard
	}
	if u.Shard >= len(set.dir.plan.Shards) {
		return ErrUnknownShard
	}
	span := set.dir.plan.Shards[u.Shard]
	if len(u.Units) != span.To-span.From {
		return fmt.Errorf("%w: shard %d covers %d units, upload has %d",
			ErrBadUpload, u.Shard, span.To-span.From, len(u.Units))
	}
	st := set.dir.state(u.Shard)
	if st.State == ShardDone {
		return nil // duplicate upload: already settled, same bytes by construction
	}
	if got := unitsSum(u.Units); got != u.Sum {
		// The payload rotted in transit: never store it. When the uploader
		// still holds the lease, release the shard immediately so another
		// worker recomputes it instead of waiting out the TTL; corruption is
		// just another recoverable fault, bounded by the attempts budget.
		c.corrupt.Inc()
		if st.State == ShardLeased && st.Lease == u.Lease {
			set.dir.log(shardWALRecord{Shard: u.Shard, State: ShardPending, Attempts: st.Attempts})
			set.jb.hub.publish(EventShard, shardEvent{
				Shard: u.Shard, State: "requeued", Worker: st.Worker,
				Attempts: st.Attempts, Detail: "corrupt upload",
			})
		}
		return fmt.Errorf("%w: shard %d payload hashes to %s, upload declared %s",
			ErrCorruptUpload, u.Shard, got, u.Sum)
	}
	worker := st.Worker
	if err := set.dir.complete(span, u.Units, worker, st.Attempts); err != nil {
		return err
	}
	c.uploads.Inc()
	set.done++
	set.jb.hub.publish(EventShard, shardEvent{
		Shard: u.Shard, State: "done", Worker: worker, Attempts: st.Attempts,
	})
	if set.done == len(set.dir.plan.Shards) {
		c.dropLocked(u.Job)
		close(set.settled)
	}
	return nil
}

// ShardStatuses reports every shard's live state for one distributed job.
// ok is false when the job is not currently distributing (unknown,
// terminal, or the daemon is not a coordinator).
func (s *Service) ShardStatuses(jobID string) ([]ShardStatus, bool) {
	if s.coord == nil {
		return nil, false
	}
	c := s.coord
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	set, ok := c.sets[jobID]
	if !ok {
		return nil, false
	}
	out := make([]ShardStatus, 0, len(set.dir.plan.Shards))
	for _, span := range set.dir.plan.Shards {
		st := set.dir.state(span.Index)
		status := ShardStatus{
			Shard: span.Index, From: span.From, To: span.To,
			State: st.State, Worker: st.Worker, Attempts: st.Attempts,
		}
		if st.State == ShardLeased {
			status.ExpiresMS = time.Duration(st.DeadlineNS - now.UnixNano()).Milliseconds()
		}
		out = append(out, status)
	}
	return out, true
}
