package service

import (
	"encoding/json"
	"sync"
)

// Event types streamed over a job's SSE endpoint.
const (
	// EventState announces a job state change ({"state":"running"}).
	EventState = "state"
	// EventProgress relays one engine notification (trial/simulation
	// started, done or failed, with the counters after it).
	EventProgress = "progress"
	// EventEpoch relays one live epoch sample from a detailed simulation,
	// tagged with the run ("Bank-aware", "set3/Equal", ...) it belongs to.
	EventEpoch = "epoch"
)

// hubHistory bounds the per-job replay buffer. A model-scale campaign emits
// a few hundred events; a 100k-trial Monte Carlo would emit 200k progress
// events, so the buffer is a ring — late subscribers to a huge job replay
// the most recent window rather than everything.
const hubHistory = 8192

// event is one serialised SSE frame: a monotonically increasing ID (the
// SSE id: field, usable as Last-Event-ID on reconnect), a type and a
// pre-encoded JSON payload.
type event struct {
	ID   int
	Type string
	Data []byte
}

// hub is one job's event stream: a bounded replay ring plus a broadcast to
// blocked subscribers. Publishing never blocks on consumers — slow SSE
// clients catch up from the ring or miss the oldest frames, and the
// simulation goroutines never wait on the network.
type hub struct {
	mu      sync.Mutex
	cond    *sync.Cond
	ring    []event
	nextID  int
	dropped int // events rotated out of the ring
	closed  bool
}

func newHub() *hub {
	h := &hub{}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// publish appends one event of the given type, JSON-encoding payload once.
func (h *hub) publish(typ string, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		// Payloads are our own structs; failure to encode is a programming
		// error, and the stream is diagnostics — drop rather than die.
		return
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.nextID++
	h.ring = append(h.ring, event{ID: h.nextID, Type: typ, Data: data})
	if len(h.ring) > hubHistory {
		over := len(h.ring) - hubHistory
		h.ring = append(h.ring[:0:0], h.ring[over:]...)
		h.dropped += over
	}
	h.mu.Unlock()
	h.cond.Broadcast()
}

// close marks the stream complete and wakes every waiting subscriber.
func (h *hub) close() {
	h.mu.Lock()
	h.closed = true
	h.mu.Unlock()
	h.cond.Broadcast()
}

// next returns every buffered event with ID > after, blocking until there
// is at least one or the stream closes. The second result is false once the
// stream is closed and fully consumed. cancel, when non-nil, is an
// out-of-band wakeup (subscriber disconnect): next returns early with
// (nil, true) once it fires.
func (h *hub) next(after int, cancel <-chan struct{}) ([]event, bool) {
	if cancel != nil {
		// A Cond cannot select on a channel; a watcher goroutine converts
		// the cancellation into a broadcast. stop keeps the watcher from
		// leaking once next returns.
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-cancel:
				h.cond.Broadcast()
			case <-stop:
			}
		}()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		select {
		case <-cancel:
			return nil, true
		default:
		}
		if evs := h.after(after); len(evs) > 0 {
			return evs, true
		}
		if h.closed {
			return nil, false
		}
		h.cond.Wait()
	}
}

// after returns the buffered events with ID > after. Callers hold h.mu.
func (h *hub) after(after int) []event {
	if after < h.dropped {
		after = h.dropped
	}
	start := after - h.dropped
	if start >= len(h.ring) {
		return nil
	}
	return append([]event(nil), h.ring[start:]...)
}
