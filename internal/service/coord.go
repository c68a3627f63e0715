package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
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
	// longer recognises (expired and re-granted, granted before the
	// coordinator restarted, or the shard completed), and an upload under a
	// lease the job's current plan never granted for that shard.
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

// Shard lease states. A shard is pending until a worker leases it, leased
// while a worker holds an unexpired lease, and done once the job's unit
// journal holds every unit of its span — done is terminal and durable (the
// journaled units are the proof).
const (
	ShardPending = "pending"
	ShardLeased  = "leased"
	ShardDone    = "done"
)

// shardState is one shard's lease state. It lives only in the
// coordinator's memory: a lease is soft state that expires within one TTL,
// so a restarted coordinator starts every shard the unit journal does not
// complete as pending, the recovery a dead worker's shard gets anyway.
type shardState struct {
	State string
	// Worker is the leaseholder (leased) or the completing worker (done).
	Worker   string
	Lease    string    // the live lease token, while leased
	Deadline time.Time // the lease's expiry, while leased
	// Attempts counts lease grants in this coordinator's lifetime.
	Attempts int
}

// shardSet is one distributed job in flight: its shard plan, each shard's
// lease state, and the coordination signals runDistributed waits on. All
// fields past the immutable header are guarded by the coordinator's mutex.
type shardSet struct {
	jb    *job
	units *runner.Journal // the job's unit journal, keyed by unit index
	spans []shardSpan
	total int // campaign units
	// nonce is drawn afresh each time the job starts distributing. Every
	// lease token of the set carries it, so no token is issued twice and
	// an upload under a lease from an earlier start is told apart.
	nonce uint64

	states  []shardState  // by shard index
	done    int           // shards completed
	failed  error         // permanent failure, set before settled closes
	settled chan struct{} // closed once done == len(spans) or failed
}

// coordinator owns every in-flight distributed job's lease table. A single
// mutex serialises lease traffic; grants, renewals, uploads and expiry
// scans are all short critical sections over in-memory state, and only an
// accepted upload touches the disk (one synced unit-journal append).
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
// The plan is derived from the spec and Config.ShardUnits each time the
// job starts, and the journal alone says which shards are done, so a job
// resumes from its journaled units, whichever mode journaled them, after a
// drain, a crash or a change of ShardUnits. The job context governs the
// wait: cancellation (drain, user cancel, timeout) detaches the job.
func (s *Service) runDistributed(ctx context.Context, jb *job, units *runner.Journal) ([]json.RawMessage, error) {
	total := campaignUnits(jb.spec)
	set := &shardSet{jb: jb, units: units, spans: planShards(total, s.cfg.ShardUnits), total: total,
		nonce: rand.Uint64(), settled: make(chan struct{})}
	set.states = make([]shardState, len(set.spans))
	for i, span := range set.spans {
		set.states[i].State = ShardPending
		if len(units.Lacks(span.From, span.To)) == 0 {
			set.states[i].State = ShardDone
			set.done++
		}
	}

	c := s.coord
	c.mu.Lock()
	if set.done == len(set.spans) {
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
			return units.Records(0, total)
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-ticker.C:
			c.expireOverdue(set, time.Now())
		}
	}
}

// leasePrefix is what every lease token this set grants for shard i
// starts with: the job, the shard's index and span, and the set's nonce.
// The attempt number completes the token.
func (set *shardSet) leasePrefix(i int) string {
	span := set.spans[i]
	return fmt.Sprintf("%s/s%d/%d-%d/%016x/a", set.jb.id, i, span.From, span.To, set.nonce)
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

// expireOverdue re-queues every overdue lease of one set.
func (c *coordinator) expireOverdue(set *shardSet, now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sets[set.jb.id] == set { // not settled or unregistered concurrently
		c.expireLocked(set, now)
	}
}

// expireLocked re-queues every lease of set that is overdue at now. It
// reports false when that failed the job. Callers hold c.mu.
func (c *coordinator) expireLocked(set *shardSet, now time.Time) bool {
	for i := range set.states {
		if st := set.states[i]; st.State == ShardLeased && !now.Before(st.Deadline) {
			c.expired.Inc()
			if !c.releaseLocked(set, i, "lease expired") {
				return false
			}
		}
	}
	return true
}

// releaseLocked ends shard i's lease (expired, failed back, or uploaded
// corrupt) and re-queues the shard with its attempts counted, or fails the
// job once the shard has used its attempt budget — a shard that crashes
// every worker it lands on must not loop forever. It reports false when it
// failed the job. Callers hold c.mu.
func (c *coordinator) releaseLocked(set *shardSet, i int, detail string) bool {
	st := &set.states[i]
	if st.Attempts >= maxShardAttempts {
		c.failLocked(set, fmt.Errorf("service: shard %d failed %d lease attempts (last worker %q): %s",
			i, st.Attempts, st.Worker, detail))
		return false
	}
	set.jb.hub.publish(EventShard, shardEvent{
		Shard: i, State: "requeued", Worker: st.Worker, Attempts: st.Attempts, Detail: detail,
	})
	*st = shardState{State: ShardPending, Attempts: st.Attempts}
	return true
}

// failLocked settles a set with a permanent error. Callers hold c.mu.
func (c *coordinator) failLocked(set *shardSet, err error) {
	set.failed = err
	c.dropLocked(set.jb.id)
	close(set.settled)
}

// Lease grants the next available shard to worker, scanning jobs in
// submission order. ok is false when no work is available (the worker
// should poll again later). Overdue leases are re-queued first, so a
// crashed worker's shard is stolen on the next pull rather than only on
// the next expiry tick.
func (s *Service) Lease(worker string) (*ShardGrant, bool, error) {
	if s.coord == nil {
		return nil, false, ErrNotCoordinator
	}
	c := s.coord
	now := time.Now()
	ttl := s.cfg.leaseTTL()
	c.mu.Lock()
	defer c.mu.Unlock()
	// Snapshot the scan order: failLocked edits c.order mid-scan when a
	// shard exhausts its budget.
	order := append([]string(nil), c.order...)
	for _, id := range order {
		set, ok := c.sets[id]
		if !ok || !c.expireLocked(set, now) {
			continue // settled while scanning
		}
		for i, span := range set.spans {
			st := &set.states[i]
			if st.State != ShardPending {
				continue
			}
			st.Attempts++
			st.State, st.Worker, st.Deadline = ShardLeased, worker, now.Add(ttl)
			st.Lease = fmt.Sprintf("%s%d", set.leasePrefix(i), st.Attempts)
			c.leases.Inc()
			set.jb.hub.publish(EventShard, shardEvent{
				Shard: i, State: "leased", Worker: worker, Attempts: st.Attempts,
			})
			return &ShardGrant{
				Job: id, Shard: i, From: span.From, To: span.To,
				Units: set.total, Spec: set.jb.spec,
				Lease: st.Lease, TTLMS: ttl.Milliseconds(),
			}, true, nil
		}
	}
	return nil, false, nil
}

// lookup resolves an ack's (job, shard, lease) against the live lease
// table. Callers hold c.mu.
func (c *coordinator) lookup(job string, shard int, lease string) (*shardSet, *shardState, error) {
	set, ok := c.sets[job]
	if !ok || shard < 0 || shard >= len(set.spans) {
		return nil, nil, ErrUnknownShard
	}
	st := &set.states[shard]
	if st.State != ShardLeased || st.Lease != lease {
		return nil, nil, ErrUnknownLease
	}
	return set, st, nil
}

// Renew extends a held lease by one TTL from now. A renewal naming a
// superseded lease fails with ErrUnknownLease — the worker lost the shard
// (it expired and was stolen, or the coordinator restarted) and must
// abandon it.
func (s *Service) Renew(a *ShardAck) error {
	if s.coord == nil {
		return ErrNotCoordinator
	}
	c := s.coord
	c.mu.Lock()
	defer c.mu.Unlock()
	_, st, err := c.lookup(a.Job, a.Shard, a.Lease)
	if err != nil {
		return err
	}
	st.Deadline = time.Now().Add(s.cfg.leaseTTL())
	return nil
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
	set, _, err := c.lookup(a.Job, a.Shard, a.Lease)
	if err != nil {
		return err
	}
	c.releaseLocked(set, a.Shard, a.Error)
	return nil
}

// CompleteShard accepts one shard's unit results and appends them to the
// job's unit journal with one synced write. Completion is
// idempotent and — deliberately — not gated on holding the live lease:
// every unit is a pure function of (spec, index), so an upload under any
// lease this start of the job granted for the shard carries the correct
// bytes, even from a worker whose lease expired mid-upload and was
// granted again. If the shard was re-leased meanwhile, the usurped
// worker's next renew fails and it abandons. An upload under a lease
// from before the job last started is rejected: it may name the same
// shard index over other units (a restart with another ShardUnits) or
// another store's job of the same ID, and the upload carries no range of
// its own.
func (s *Service) CompleteShard(u *ShardUpload) error {
	if s.coord == nil {
		return ErrNotCoordinator
	}
	c := s.coord
	c.mu.Lock()
	defer c.mu.Unlock()
	set, ok := c.sets[u.Job]
	if !ok || u.Shard < 0 || u.Shard >= len(set.spans) {
		return ErrUnknownShard
	}
	if !strings.HasPrefix(u.Lease, set.leasePrefix(u.Shard)) {
		return fmt.Errorf("%w: shard %d was never leased as %q", ErrUnknownLease, u.Shard, u.Lease)
	}
	span, st := set.spans[u.Shard], &set.states[u.Shard]
	if len(u.Units) != span.To-span.From {
		return fmt.Errorf("%w: shard %d covers %d units, upload has %d",
			ErrBadUpload, u.Shard, span.To-span.From, len(u.Units))
	}
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
			c.releaseLocked(set, u.Shard, "corrupt upload")
		}
		return fmt.Errorf("%w: shard %d payload hashes to %s, upload declared %s",
			ErrCorruptUpload, u.Shard, got, u.Sum)
	}
	if err := set.units.RecordBatch(span.From, u.Units); err != nil {
		return err
	}
	*st = shardState{State: ShardDone, Worker: st.Worker, Attempts: st.Attempts}
	c.uploads.Inc()
	set.done++
	set.jb.hub.publish(EventShard, shardEvent{
		Shard: u.Shard, State: "done", Worker: st.Worker, Attempts: st.Attempts,
	})
	if set.done == len(set.spans) {
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
	out := make([]ShardStatus, 0, len(set.spans))
	for i, span := range set.spans {
		st := set.states[i]
		status := ShardStatus{
			Shard: i, From: span.From, To: span.To,
			State: st.State, Worker: st.Worker, Attempts: st.Attempts,
		}
		if st.State == ShardLeased {
			status.ExpiresMS = st.Deadline.Sub(now).Milliseconds()
		}
		out = append(out, status)
	}
	return out, true
}
