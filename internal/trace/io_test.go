package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"bankaware/internal/stats"
)

func TestRecordReplayRoundTrip(t *testing.T) {
	g := MustGenerator(MustSpec("gzip"), stats.NewRNG(7, 8), GeneratorConfig{BlocksPerWay: 64})
	var want []Event
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	for i := 0; i < 5000; i++ {
		ev := g.Next()
		want = append(want, ev)
		if err := rec.Record(ev); err != nil {
			t.Fatal(err)
		}
	}
	if rec.Count() != 5000 {
		t.Fatalf("Count = %d", rec.Count())
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(want))
	}
	for i, ev := range want {
		if tr.Event(i) != ev {
			t.Fatalf("record %d: %+v vs %+v", i, tr.Event(i), ev)
		}
	}
}

func TestRecordStreamHelper(t *testing.T) {
	g := MustGenerator(MustSpec("eon"), stats.NewRNG(1, 2), GeneratorConfig{BlocksPerWay: 32})
	var buf bytes.Buffer
	if err := RecordStream(g, 100, &buf); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 100 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestReplayerLoops(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	for i := 0; i < 3; i++ {
		rec.Record(Event{Gap: i, Access: Access{Addr: Addr(i << BlockBits)}})
	}
	rec.Flush()
	tr, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Stream()
	for round := 0; round < 4; round++ {
		for i := 0; i < 3; i++ {
			ev := s.Next()
			if ev.Gap != i {
				t.Fatalf("round %d pos %d: gap %d", round, i, ev.Gap)
			}
		}
	}
}

func TestReplayEmptyTracePanics(t *testing.T) {
	s := (&Trace{}).Stream()
	defer func() {
		if recover() == nil {
			t.Fatal("empty replay should panic")
		}
	}()
	s.Next()
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader([]byte("not a trace at all"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadTrace(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	// Correct magic, bogus version.
	var buf bytes.Buffer
	buf.WriteString("BANKAWTR")
	buf.WriteByte(0x63)
	if _, err := ReadTrace(&buf); err == nil {
		t.Fatal("bogus version accepted")
	}
}

func TestReadTraceTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	rec.Record(Event{Gap: 1, Access: Access{Addr: 0x1000}})
	rec.Flush()
	whole := buf.Bytes()
	// Chop mid-record: first record is magic+version+gap+addr; cutting the
	// last byte leaves a gap varint without its address.
	if _, err := ReadTrace(bytes.NewReader(whole[:len(whole)-1])); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gzip.trace.gz")
	g := MustGenerator(MustSpec("gzip"), stats.NewRNG(4, 5), GeneratorConfig{BlocksPerWay: 64})
	if err := WriteTraceFile(path, g, 2000); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	// Replay must be deterministic against a fresh identical generator.
	g2 := MustGenerator(MustSpec("gzip"), stats.NewRNG(4, 5), GeneratorConfig{BlocksPerWay: 64})
	s := tr.Stream()
	for i := 0; i < 2000; i++ {
		if s.Next() != g2.Next() {
			t.Fatalf("replay diverged at %d", i)
		}
	}
}

// A recording that fails part-way leaves the file it would have replaced
// as it was, not truncated.
func TestFailedTraceWriteKeepsPreviousFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kept.trace.gz")
	g := MustGenerator(MustSpec("gzip"), stats.NewRNG(4, 5), GeneratorConfig{BlocksPerWay: 64})
	if err := WriteTraceFile(path, g, 10); err != nil {
		t.Fatal(err)
	}
	// The second event sits 2^63 from the first, which Record rejects.
	far := (&Trace{events: []Event{{Access: Access{Addr: 0}}, {Access: Access{Addr: 1 << 63}}}}).Stream()
	if err := WriteTraceFile(path, far, 2); err == nil {
		t.Fatal("recording an address 2^63 away succeeded")
	}
	tr, err := ReadTraceFile(path)
	if err != nil {
		t.Fatalf("the previous trace is gone after a failed write: %v", err)
	}
	if tr.Len() != 10 {
		t.Fatalf("the previous trace reads back %d events, want 10", tr.Len())
	}
}

func TestReadTraceFileErrors(t *testing.T) {
	if _, err := ReadTraceFile(filepath.Join(t.TempDir(), "missing.gz")); err == nil {
		t.Fatal("missing file accepted")
	}
	path := filepath.Join(t.TempDir(), "plain.txt")
	if err := os.WriteFile(path, []byte("plain text"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTraceFile(path); err == nil {
		t.Fatal("non-gzip file accepted")
	}
}

// Addresses far apart either round-trip or are refused: a delta outside
// [-2^62, 2^62) has no room beside the write flag and would read back
// wrong (recording 1<<40 and then 1<<63 once read back 1<<62).
func TestRecordRoundTripsOrRejectsWideDeltas(t *testing.T) {
	steps := []struct {
		addr Addr
		ok   bool
	}{
		{1 << 40, true},
		{1 << 63, false},          // delta 2^63 - 2^40
		{1<<62 + 1<<40, false},    // delta 2^62
		{1<<62 - 1 + 1<<40, true}, // delta 2^62 - 1
		{1<<40 - 1, true},         // delta -2^62
		{^Addr(0), true},          // delta -2^40, wrapping
		{0, true},                 // delta 1, wrapping
		{3 << 62, true},           // delta 3*2^62, wrapping to -2^62
		{1<<62 - 1, false},        // delta -2^63 - 1, wrapping to 2^63 - 1
		{1<<62 + 1<<61, false},    // delta -2^63 + 2^61
		{1 << 63, true},           // delta -2^62
	}
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	var want []Event
	for i, st := range steps {
		ev := Event{Gap: i, Access: Access{Addr: st.addr, Write: i%2 == 0}}
		err := rec.Record(ev)
		if (err == nil) != st.ok {
			t.Fatalf("step %d (%#x): Record error %v, want accepted=%v", i, uint64(st.addr), err, st.ok)
		}
		if err == nil {
			want = append(want, ev)
		}
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(want))
	}
	for i, ev := range want {
		if tr.Event(i) != ev {
			t.Fatalf("record %d: %+v, want %+v", i, tr.Event(i), ev)
		}
	}
}

// A recording of no events is the header alone, and reads back empty.
func TestEmptyTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := NewRecorder(&buf).Flush(); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("reading a header-only trace: %v", err)
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	path := filepath.Join(t.TempDir(), "empty.trace.gz")
	g := MustGenerator(MustSpec("gzip"), stats.NewRNG(1, 2), GeneratorConfig{})
	if err := WriteTraceFile(path, g, 0); err != nil {
		t.Fatal(err)
	}
	if tr, err := ReadTraceFile(path); err != nil || tr.Len() != 0 {
		t.Fatalf("zero-event trace file: %v, %v events", err, tr)
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40)} {
		if got := unzig(zigzag(v)); got != v {
			t.Fatalf("zigzag round trip %d -> %d", v, got)
		}
	}
}

func TestDeltaEncodingCompact(t *testing.T) {
	// A sequential sweep must encode near one byte per record (delta=64
	// bytes -> small varint).
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	for i := 0; i < 10_000; i++ {
		rec.Record(Event{Gap: 0, Access: Access{Addr: Addr(i << BlockBits)}})
	}
	rec.Flush()
	perRecord := float64(buf.Len()) / 10_000
	if perRecord > 3.5 {
		t.Fatalf("%.2f bytes per sequential record; delta coding broken", perRecord)
	}
}
