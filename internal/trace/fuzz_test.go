package trace

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzReadTrace hardens the trace parser: arbitrary input may be rejected
// but must never panic or return an inconsistent Trace.
func FuzzReadTrace(f *testing.F) {
	// Seed with a real trace and a few corruptions of it.
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	for i := 0; i < 20; i++ {
		rec.Record(Event{Gap: i % 7, Access: Access{Addr: Addr(i * 64), Write: i%3 == 0}})
	}
	rec.Flush()
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("BANKAWTR"))
	f.Add([]byte{})
	f.Add([]byte("garbage that is long enough to look like a header"))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successfully parsed trace must round-trip through a recorder.
		var out bytes.Buffer
		rec := NewRecorder(&out)
		for i := 0; i < tr.Len(); i++ {
			if err := rec.Record(tr.Event(i)); err != nil {
				t.Fatalf("re-recording parsed trace: %v", err)
			}
		}
		if err := rec.Flush(); err != nil {
			t.Fatal(err)
		}
		if tr.Len() == 0 {
			return
		}
		tr2, err := ReadTrace(&out)
		if err != nil {
			t.Fatalf("re-parsing re-recorded trace: %v", err)
		}
		if tr2.Len() != tr.Len() {
			t.Fatalf("round trip changed length: %d vs %d", tr2.Len(), tr.Len())
		}
		for i := 0; i < tr.Len(); i++ {
			if tr2.Event(i) != tr.Event(i) {
				t.Fatalf("round trip changed record %d", i)
			}
		}
	})
}

// FuzzRecordRoundTrip is the writer side of FuzzReadTrace: each 9-byte
// group of the input is one event (a control byte holding the gap, the
// write flag and whether the next 8 bytes are an address or a small block
// step). Record must accept exactly the events whose address delta fits
// the format, and the accepted events must read back unchanged.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add([]byte("\x05\x00\x00\x00\x00\x00\x01\x00\x00\x01\x03\x00\x00\x00\x00\x00\x00\x00\x80"))
	f.Add(bytes.Repeat([]byte{0x01, 0xff, 0, 0, 0, 0, 0, 0, 0}, 4))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var buf bytes.Buffer
		rec := NewRecorder(&buf)
		var want []Event
		var prev Addr
		for ; len(data) >= 9; data = data[9:] {
			ctl := data[0]
			addr := Addr(binary.LittleEndian.Uint64(data[1:9]))
			if ctl&1 == 1 {
				addr = prev + Addr(int64(int8(addr))<<BlockBits)
			}
			ev := Event{Gap: int(ctl >> 2), Access: Access{Addr: addr, Write: ctl&2 != 0}}
			d := int64(addr - prev)
			fits := d >= -1<<62 && d < 1<<62
			if err := rec.Record(ev); (err == nil) != fits {
				t.Fatalf("delta %d: Record error %v, want accepted=%v", d, err, fits)
			}
			if fits {
				want = append(want, ev)
				prev = addr
			}
		}
		if err := rec.Flush(); err != nil {
			t.Fatal(err)
		}
		tr, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("reading back: %v", err)
		}
		if tr.Len() != len(want) {
			t.Fatalf("read back %d events, want %d", tr.Len(), len(want))
		}
		for i, ev := range want {
			if tr.Event(i) != ev {
				t.Fatalf("event %d: %+v, want %+v", i, tr.Event(i), ev)
			}
		}
	})
}

// FuzzSpecMissCurve hardens the analytic curve against arbitrary spec
// parameters: any spec that passes Validate must produce a monotone curve
// starting at 1.
func FuzzSpecMissCurve(f *testing.F) {
	f.Add(0.3, 0.2, 0.1, 5.0, uint8(16))
	f.Add(0.0, 1.0, 0.0, 1.0, uint8(1))
	f.Fuzz(func(t *testing.T, m1, m2, cold, loopWays float64, kneeRaw uint8) {
		s := Spec{
			Name:     "fuzz",
			HitMass:  []float64{m1, m2},
			ColdFrac: cold,
			LoopMass: m1 / 2,
			LoopWays: loopWays,
			MemPerKI: 50,
		}
		_ = kneeRaw
		if s.Validate() != nil {
			return
		}
		curve := s.MissCurve(MaxWays)
		if len(curve) != MaxWays+1 {
			t.Fatalf("curve length %d", len(curve))
		}
		if curve[0] < 1-1e-9 || curve[0] > 1+1e-9 {
			t.Fatalf("curve[0] = %v", curve[0])
		}
		for w := 1; w < len(curve); w++ {
			if curve[w] > curve[w-1]+1e-9 {
				t.Fatalf("curve increased at %d", w)
			}
		}
	})
}
