package trace

import (
	"encoding/binary"
	"slices"
	"sync"
)

// Tape records a generator's stream once so that any number of readers can
// replay it. The policy units of one set evaluation all consume the same
// per-core streams, and decoding a recorded event costs a fraction of
// generating it.
//
// Recording is lazy and goes in chunks of a fixed number of events: a
// reader that runs past the recorded end generates the next chunk under the
// tape's lock, so the generator advances only as far as the furthest reader
// needs. A published chunk never changes and is read without the lock.
// Each event is two uvarints, gap<<1|write and then the zig-zag delta from
// the previous event's address, so every 64-bit address round-trips; the
// catalog workloads take 4-5 bytes an event, against 24 for an Event.
//
// Memory is bounded: once the next chunk could take the recording past the
// byte cap, the tape stops recording and its generator stays frozen at the
// recorded end. A reader that reaches that end continues on its own clone
// of the frozen generator, so every reader sees the generator's whole
// stream whatever the cap.
type Tape struct {
	chunkEvents int // events per chunk
	capBytes    int // bound on the recorded bytes

	mu      sync.Mutex
	gen     *Generator // frozen once full
	chunks  [][]byte
	size    int  // recorded bytes, summed over chunks
	full    bool // recording stopped at the cap
	prev    Addr // address of the last recorded event
	scratch []byte
	served  int // chunks handed to readers
}

const (
	// tapeChunkEvents is the recording step. A set's tapes overshoot what
	// its units read by less than one chunk each.
	tapeChunkEvents = 1024
	// tapeCapBytes bounds one tape's recording. The longest core stream of
	// a default 3 M-instruction model-scale set takes about 1.1 MB.
	tapeCapBytes = 4 << 20
	// maxTapeRecord is the longest encoding of one event.
	maxTapeRecord = 2 * binary.MaxVarintLen64
)

// NewTape records g's stream from its current position. The tape owns g
// from here on: the caller must not advance it.
func NewTape(g *Generator) *Tape { return newTape(g, tapeChunkEvents, tapeCapBytes) }

func newTape(g *Generator, chunkEvents, capBytes int) *Tape {
	return &Tape{gen: g, chunkEvents: chunkEvents, capBytes: capBytes}
}

// Len returns the number of events recorded so far.
func (t *Tape) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.chunks) * t.chunkEvents
}

// Size returns the number of bytes recorded so far; it never exceeds the
// tape's cap.
func (t *Tape) Size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.size
}

// Served returns the number of recorded events handed to readers so far,
// counted in whole chunks: a chunk three readers have reached counts three
// times.
func (t *Tape) Served() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.served * t.chunkEvents
}

// Reader returns a stream that replays the tape from its start.
func (t *Tape) Reader() *TapeReader { return &TapeReader{tape: t} }

// chunk returns chunk i, recording it first if no reader has reached it
// yet. Readers ask for chunks in order, so i is at most one past the end.
// Past the end of a full tape it returns a clone of the frozen generator
// instead.
func (t *Tape) chunk(i int) ([]byte, *Generator) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i == len(t.chunks) && !t.full {
		t.record()
	}
	if i < len(t.chunks) {
		t.served++
		return t.chunks[i], nil
	}
	return nil, t.gen.Clone()
}

// record generates and publishes the next chunk, or stops recording when
// that chunk could take the tape past its cap. t.mu is held.
func (t *Tape) record() {
	if t.size+t.chunkEvents*maxTapeRecord > t.capBytes {
		t.full, t.scratch = true, nil
		return
	}
	buf := t.scratch[:0]
	for i := 0; i < t.chunkEvents; i++ {
		ev := t.gen.Next()
		buf = appendTapeEvent(buf, ev, t.prev)
		t.prev = ev.Access.Addr
	}
	t.scratch = buf
	t.chunks = append(t.chunks, slices.Clone(buf))
	t.size += len(buf)
}

// appendTapeEvent appends ev's record, its address coded as the delta from
// prev.
func appendTapeEvent(buf []byte, ev Event, prev Addr) []byte {
	w := uint64(0)
	if ev.Access.Write {
		w = 1
	}
	buf = binary.AppendUvarint(buf, uint64(ev.Gap)<<1|w)
	return binary.AppendUvarint(buf, zigzag(int64(ev.Access.Addr-prev)))
}

// tapeEvent decodes the record at the start of buf, whose address is coded
// against prev, and returns it with the record's length.
func tapeEvent(buf []byte, prev Addr) (Event, int) {
	gw, n := binary.Uvarint(buf)
	d, m := binary.Uvarint(buf[n:])
	return Event{Gap: int(gw >> 1), Access: Access{Addr: prev + Addr(unzig(d)), Write: gw&1 == 1}}, n + m
}

// TapeReader replays a tape. It is a Stream for one goroutine at a time;
// readers of one tape are independent and may run concurrently.
type TapeReader struct {
	tape  *Tape
	chunk []byte // the current chunk's unread bytes
	left  int    // events left in the current chunk
	next  int    // index of the next chunk
	prev  Addr
	gen   *Generator // own clone, once past the end of a full tape
}

// Next implements Stream.
func (r *TapeReader) Next() Event {
	if r.left == 0 && !r.advance() {
		return r.gen.Next()
	}
	r.left--
	ev, n := tapeEvent(r.chunk, r.prev)
	r.chunk = r.chunk[n:]
	r.prev = ev.Access.Addr
	return ev
}

// advance moves to the next chunk and reports whether there is one. Past
// the end of a full tape it reports false, with r.gen set to continue the
// stream.
func (r *TapeReader) advance() bool {
	if r.gen != nil {
		return false
	}
	r.chunk, r.gen = r.tape.chunk(r.next)
	if r.gen != nil {
		return false
	}
	r.next++
	r.left = r.tape.chunkEvents
	return true
}
