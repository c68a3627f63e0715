package service

import (
	"container/heap"
	"errors"
	"sync"
)

// ErrQueueFull is returned by reserve when the queue is at capacity — the
// signal the HTTP layer turns into 429 backpressure.
var ErrQueueFull = errors.New("service: job queue full")

// errQueueClosed is returned by reserve after the queue shut down.
var errQueueClosed = errors.New("service: job queue closed")

// jobQueue is a bounded priority queue of jobs awaiting an executor:
// highest Spec.Priority first, submission order within a priority class.
// pop blocks until an item arrives or the queue closes.
type jobQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  jobHeap
	cap    int
	closed bool
	// reserved counts capacity slots claimed by submissions whose durable
	// group commit is still in flight (reserve → pushReserved/release), so
	// backpressure is decided before the fsync, not after.
	reserved int
	// inflight is incremented under the lock for every job pop hands out,
	// making the claim atomic with queue closure: after close() returns,
	// inflight covers exactly the claimed-but-unfinished jobs (Drain waits
	// on it with no claim window to race).
	inflight *sync.WaitGroup
}

func newJobQueue(capacity int, inflight *sync.WaitGroup) *jobQueue {
	q := &jobQueue{cap: capacity, inflight: inflight}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// reserve claims one capacity slot ahead of a durable commit, failing fast
// with ErrQueueFull (the 429 decision happens before any fsync is paid).
func (q *jobQueue) reserve() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return errQueueClosed
	}
	if len(q.items)+q.reserved >= q.cap {
		return ErrQueueFull
	}
	q.reserved++
	return nil
}

// release returns an unused reservation (the commit failed).
func (q *jobQueue) release() {
	q.mu.Lock()
	q.reserved--
	q.mu.Unlock()
}

// pushReserved converts a reservation into a queued job. On a queue closed
// by drain the job is simply not enqueued: it is already durable as
// StateQueued, so the next daemon's Start re-enqueues it — the submission
// stays acked either way.
func (q *jobQueue) pushReserved(jb *job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reserved--
	if q.closed {
		return
	}
	heap.Push(&q.items, jb)
	q.cond.Signal()
}

// pop dequeues the highest-priority job, blocking while the queue is empty.
// It returns nil as soon as the queue closes — jobs still waiting stay in
// the heap (and in the store as StateQueued) so a drained daemon's backlog
// re-enqueues on the next start instead of racing shutdown.
func (q *jobQueue) pop() *job {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.closed {
			return nil
		}
		if len(q.items) > 0 {
			q.inflight.Add(1)
			return heap.Pop(&q.items).(*job)
		}
		q.cond.Wait()
	}
}

// remove takes jb out of the queue if it is still waiting, reporting
// whether it was found (false means an executor already claimed it).
func (q *jobQueue) remove(jb *job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, item := range q.items {
		if item == jb {
			heap.Remove(&q.items, i)
			return true
		}
	}
	return false
}

// depth returns the number of waiting jobs.
func (q *jobQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// close wakes every blocked pop; subsequent reservations fail.
func (q *jobQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// jobHeap orders jobs by (priority desc, seq asc) under container/heap.
type jobHeap []*job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].spec.Priority != h[j].spec.Priority {
		return h[i].spec.Priority > h[j].spec.Priority
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(*job)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	item := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return item
}
