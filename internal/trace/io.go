package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"bankaware/internal/atomicio"
)

// Trace file format: the repository's interchange format for recorded
// access streams, so experiments can run against captured traces (the
// trace-driven methodology Mattson's algorithm was originally built for)
// instead of live generators.
//
// Layout (after optional gzip): the 8-byte magic, a format version, then
// one varint-encoded record per event:
//
//	magic   "BANKAWTR"
//	version uvarint (currently 1)
//	records repeated until EOF:
//	    uvarint gap                  (non-memory instructions)
//	    uvarint addrDelta<<1|write   (address is delta-encoded against the
//	                                  previous record's, zig-zag signed)
//
// Delta + varint encoding keeps sequential sweeps near one byte per
// record. The write flag takes the low bit of a 64-bit field, so a delta
// outside [-2^62, 2^62) does not fit and Record rejects it. A trace with
// no records is the header alone.
const (
	traceMagic   = "BANKAWTR"
	traceVersion = 1
)

// Recorder serialises events to a writer.
type Recorder struct {
	w        *bufio.Writer
	buf      []byte
	prevAddr Addr
	count    uint64
	started  bool
}

// NewRecorder starts a trace on w (write the result through gzip yourself
// or use WriteTraceFile).
func NewRecorder(w io.Writer) *Recorder {
	return &Recorder{w: bufio.NewWriter(w)}
}

func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }
func unzig(u uint64) int64  { return int64(u>>1) ^ -int64(u&1) }

// start writes the header once.
func (r *Recorder) start() error {
	if r.started {
		return nil
	}
	if _, err := r.w.WriteString(traceMagic); err != nil {
		return err
	}
	r.buf = binary.AppendUvarint(r.buf[:0], traceVersion)
	if _, err := r.w.Write(r.buf); err != nil {
		return err
	}
	r.started = true
	return nil
}

// Record appends one event. It rejects an address whose delta from the
// previous one falls outside [-2^62, 2^62), which the format cannot hold.
func (r *Recorder) Record(ev Event) error {
	if err := r.start(); err != nil {
		return err
	}
	delta := zigzag(int64(ev.Access.Addr - r.prevAddr))
	if delta>>63 != 0 {
		return fmt.Errorf("trace: record %d: address %#x is too far from %#x for format v%d",
			r.count, uint64(ev.Access.Addr), uint64(r.prevAddr), traceVersion)
	}
	r.prevAddr = ev.Access.Addr
	w := uint64(0)
	if ev.Access.Write {
		w = 1
	}
	r.buf = binary.AppendUvarint(r.buf[:0], uint64(ev.Gap))
	r.buf = binary.AppendUvarint(r.buf, delta<<1|w)
	if _, err := r.w.Write(r.buf); err != nil {
		return err
	}
	r.count++
	return nil
}

// Count returns the number of recorded events.
func (r *Recorder) Count() uint64 { return r.count }

// Flush writes the header if no event has, then drains buffered bytes to
// the underlying writer.
func (r *Recorder) Flush() error {
	if err := r.start(); err != nil {
		return err
	}
	return r.w.Flush()
}

// RecordStream captures n events from a stream.
func RecordStream(s Stream, n int, w io.Writer) error {
	rec := NewRecorder(w)
	for i := 0; i < n; i++ {
		if err := rec.Record(s.Next()); err != nil {
			return err
		}
	}
	return rec.Flush()
}

// Trace is a fully loaded recorded stream.
type Trace struct {
	events []Event
}

// ReadTrace parses a trace from r.
func ReadTrace(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(traceMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading version: %w", err)
	}
	if version != traceVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", version)
	}
	t := &Trace{}
	var prev Addr
	for {
		gap, err := binary.ReadUvarint(br)
		if errors.Is(err, io.EOF) {
			return t, nil
		}
		if err != nil {
			return nil, fmt.Errorf("trace: reading record %d: %w", len(t.events), err)
		}
		dw, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: truncated record %d: %w", len(t.events), err)
		}
		prev = Addr(int64(prev) + unzig(dw>>1))
		t.events = append(t.events, Event{
			Gap:    int(gap),
			Access: Access{Addr: prev, Write: dw&1 == 1},
		})
	}
}

// Len returns the number of recorded events.
func (t *Trace) Len() int { return len(t.events) }

// Event returns record i.
func (t *Trace) Event(i int) Event { return t.events[i] }

// Stream returns a cyclic replayer over the trace (looping at the end, so
// it satisfies the simulator's infinite Stream contract).
func (t *Trace) Stream() Stream { return &replayer{t: t} }

type replayer struct {
	t     *Trace
	i     int
	loops int
}

// Next implements Stream.
func (r *replayer) Next() Event {
	if len(r.t.events) == 0 {
		panic("trace: replaying an empty trace")
	}
	ev := r.t.events[r.i]
	r.i++
	if r.i == len(r.t.events) {
		r.i = 0
		r.loops++
	}
	return ev
}

// WriteTraceFile records n events of a stream to a gzip-compressed file,
// atomically: a failed recording leaves any previous file at path intact.
func WriteTraceFile(path string, s Stream, n int) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		gz := gzip.NewWriter(w)
		if err := RecordStream(s, n, gz); err != nil {
			return err
		}
		return gz.Close()
	})
}

// ReadTraceFile loads a gzip-compressed trace file.
func ReadTraceFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("trace: %s is not a gzip trace: %w", path, err)
	}
	defer gz.Close()
	return ReadTrace(gz)
}
