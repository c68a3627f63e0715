package trace

import (
	"math"
	"sync"
	"testing"

	"bankaware/internal/stats"
)

// tapeGen builds the generator a tape test records and, from the same
// seed, the reference generator it is checked against.
func tapeGen(name string, seed uint64) (*Generator, *Generator) {
	mk := func() *Generator {
		return MustGenerator(MustSpec(name), stats.NewRNG(seed, seed^0x5a5a), GeneratorConfig{BlocksPerWay: 64})
	}
	return mk(), mk()
}

// refStream is a fresh generator's stream, materialised on demand.
type refStream struct {
	gen *Generator
	evs []Event
}

func (r *refStream) at(i int) Event {
	for len(r.evs) <= i {
		r.evs = append(r.evs, r.gen.Next())
	}
	return r.evs[i]
}

func TestTapeEventCodingRoundTripsExtremes(t *testing.T) {
	addrs := []Addr{0, 1 << 40, 1 << 63, 0, math.MaxUint64, 1, math.MaxUint64 - 63, 1 << 62, 3 << 62, 0}
	var buf []byte
	prev := Addr(0)
	var want []Event
	for i, a := range addrs {
		ev := Event{Gap: i * 1000, Access: Access{Addr: a, Write: i%2 == 1}}
		buf = appendTapeEvent(buf, ev, prev)
		prev = a
		want = append(want, ev)
	}
	prev = 0
	for i, w := range want {
		ev, n := tapeEvent(buf, prev)
		if ev != w {
			t.Fatalf("record %d: got %+v, want %+v", i, ev, w)
		}
		buf, prev = buf[n:], ev.Access.Addr
	}
	if len(buf) != 0 {
		t.Fatalf("%d bytes left over", len(buf))
	}
}

// Readers interleaved in one goroutine see the generator's stream event
// for event, across chunk boundaries and, with a small cap, past the end of
// the recording on their own generator clones.
func TestTapeInterleavedReadersMatchGenerator(t *testing.T) {
	for _, tc := range []struct {
		name        string
		chunkEvents int
		capBytes    int
	}{
		{"uncapped", 16, 1 << 30},
		{"capped", 16, 40 * maxTapeRecord},
		{"cap below one chunk", 16, 1},
		{"default", tapeChunkEvents, tapeCapBytes},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, fresh := tapeGen("mcf", 3)
			ref := &refStream{gen: fresh}
			tape := newTape(g, tc.chunkEvents, tc.capBytes)
			readers := []*TapeReader{tape.Reader(), tape.Reader(), tape.Reader()}
			pos := make([]int, len(readers))
			// Uneven strides keep the readers at different offsets.
			for round := 0; round < 200; round++ {
				for i, r := range readers {
					for k := 0; k < 7+5*i+round%3; k++ {
						if got, want := r.Next(), ref.at(pos[i]); got != want {
							t.Fatalf("reader %d event %d: got %+v, want %+v", i, pos[i], got, want)
						}
						pos[i]++
					}
				}
			}
			if tape.Size() > tc.capBytes {
				t.Fatalf("tape holds %d bytes, cap %d", tape.Size(), tc.capBytes)
			}
		})
	}
}

// Concurrent readers (run with -race) each see the whole stream while
// other readers record chunks and clone the frozen generator.
func TestTapeConcurrentReaders(t *testing.T) {
	const events = 20_000
	g, fresh := tapeGen("bzip2", 11)
	want := make([]Event, events)
	for i := range want {
		want[i] = fresh.Next()
	}
	tape := newTape(g, 64, 300*maxTapeRecord)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rd := tape.Reader()
			for i := range want {
				if ev := rd.Next(); ev != want[i] {
					t.Errorf("reader %d event %d: got %+v, want %+v", r, i, ev, want[i])
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

// A tape's memory stays under its cap however far its readers go, and the
// default cap holds a 3 M-instruction model-scale stream whole.
func TestTapeSizeBounded(t *testing.T) {
	g, _ := tapeGen("art", 5)
	tape := newTape(g, 128, 64<<10)
	r := tape.Reader()
	for i := 0; i < 100_000; i++ {
		r.Next()
	}
	if tape.Size() > 64<<10 {
		t.Fatalf("tape holds %d bytes, cap %d", tape.Size(), 64<<10)
	}
	if tape.Len() >= 100_000 {
		t.Fatalf("tape recorded %d events past its cap", tape.Len())
	}

	g, _ = tapeGen("mcf", 1)
	tape = NewTape(g)
	r = tape.Reader()
	const events = 240_000
	for i := 0; i < events; i++ {
		r.Next()
	}
	if tape.Len() < events {
		t.Fatalf("default tape stopped at %d of %d events", tape.Len(), events)
	}
	if perEvent := float64(tape.Size()) / float64(tape.Len()); perEvent > 6 {
		t.Fatalf("%.2f bytes an event", perEvent)
	}
}

func TestTapeServedCountsChunkReads(t *testing.T) {
	g, _ := tapeGen("gzip", 2)
	tape := newTape(g, 8, 1<<20)
	a, b := tape.Reader(), tape.Reader()
	for i := 0; i < 20; i++ {
		a.Next()
	}
	for i := 0; i < 9; i++ {
		b.Next()
	}
	if tape.Len() != 24 || tape.Served() != 24+16 {
		t.Fatalf("Len %d Served %d, want 24 and 40", tape.Len(), tape.Served())
	}
}

func TestGeneratorCloneContinuesStream(t *testing.T) {
	g := MustGenerator(MustSpec("swim"), stats.NewRNG(9, 10), GeneratorConfig{BlocksPerWay: 32})
	for i := 0; i < 5000; i++ {
		g.Next()
	}
	c := g.Clone()
	for i := 0; i < 5000; i++ {
		if a, b := g.Next(), c.Next(); a != b {
			t.Fatalf("event %d after the clone: %+v vs %+v", i, a, b)
		}
	}
	if g.Accesses() != c.Accesses() {
		t.Fatalf("access counters %d vs %d", g.Accesses(), c.Accesses())
	}
}

// FuzzTape drives readers through random interleavings over tapes with
// small chunks and caps and checks every event against a fresh generator.
func FuzzTape(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(2), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint64(7), uint8(0), uint8(0), []byte{255, 0, 255, 1, 128})
	f.Add(uint64(42), uint8(15), uint8(9), []byte{9, 19, 29, 39, 49, 59})
	f.Fuzz(func(t *testing.T, seed uint64, chunk, capChunks uint8, schedule []byte) {
		chunkEvents := 1 + int(chunk%16)
		names := CatalogNames()
		g, fresh := tapeGen(names[seed%uint64(len(names))], seed)
		ref := &refStream{gen: fresh}
		tape := newTape(g, chunkEvents, int(capChunks%8)*chunkEvents*maxTapeRecord)
		const readers = 3
		var rs [readers]*TapeReader
		var pos [readers]int
		for _, b := range schedule {
			i := int(b) % readers
			if rs[i] == nil {
				rs[i] = tape.Reader()
			}
			for k := 0; k < 1+int(b)/readers; k++ {
				if got, want := rs[i].Next(), ref.at(pos[i]); got != want {
					t.Fatalf("reader %d event %d: got %+v, want %+v", i, pos[i], got, want)
				}
				pos[i]++
			}
		}
		if tape.Size() > int(capChunks%8)*chunkEvents*maxTapeRecord {
			t.Fatalf("tape holds %d bytes over its cap", tape.Size())
		}
	})
}
