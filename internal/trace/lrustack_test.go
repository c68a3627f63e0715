package trace

import (
	"testing"

	"bankaware/internal/stats"
)

// sliceStack is a trivially correct reference implementation used to verify
// lruStack.
type sliceStack struct{ s []Addr }

func (r *sliceStack) PushFront(a Addr) {
	r.s = append(r.s, 0)
	copy(r.s[1:], r.s)
	r.s[0] = a
}
func (r *sliceStack) RemoveAt(i int) Addr {
	a := r.s[i]
	r.s = append(r.s[:i], r.s[i+1:]...)
	return a
}
func (r *sliceStack) Len() int      { return len(r.s) }
func (r *sliceStack) At(i int) Addr { return r.s[i] }

func TestLRUStackAgainstReference(t *testing.T) {
	st := newLRUStack()
	ref := &sliceStack{}
	op := stats.NewRNG(3, 4)
	for i := 0; i < 20000; i++ {
		if ref.Len() == 0 || op.Bool(0.4) {
			a := Addr(op.Uint64())
			st.PushFront(a)
			ref.PushFront(a)
		} else {
			k := op.IntN(ref.Len())
			got := st.RemoveAt(k)
			want := ref.RemoveAt(k)
			if got != want {
				t.Fatalf("op %d: RemoveAt(%d) = %#x, want %#x", i, k, got, want)
			}
		}
		if st.Len() != ref.Len() {
			t.Fatalf("op %d: Len = %d, want %d", i, st.Len(), ref.Len())
		}
	}
	// Spot-check positional reads at the end.
	for k := 0; k < ref.Len(); k += 7 {
		if st.At(k) != ref.At(k) {
			t.Fatalf("At(%d) = %#x, want %#x", k, st.At(k), ref.At(k))
		}
	}
}

func TestLRUStackPushOrder(t *testing.T) {
	st := newLRUStack()
	for i := 0; i < 100; i++ {
		st.PushFront(Addr(i))
	}
	if st.Len() != 100 {
		t.Fatalf("Len = %d", st.Len())
	}
	for i := 0; i < 100; i++ {
		if got := st.At(i); got != Addr(99-i) {
			t.Fatalf("At(%d) = %d, want %d", i, got, 99-i)
		}
	}
}

func TestLRUStackMoveToFront(t *testing.T) {
	st := newLRUStack()
	for i := 0; i < 10; i++ {
		st.PushFront(Addr(i))
	}
	// Stack is 9..0. Re-touch rank 4 (addr 5): it must move to the front.
	a := st.RemoveAt(4)
	st.PushFront(a)
	if st.At(0) != 5 {
		t.Fatalf("front = %d, want 5", st.At(0))
	}
	if st.Len() != 10 {
		t.Fatalf("Len changed: %d", st.Len())
	}
}

func TestLRUStackRemoveAtPanicsOutOfRange(t *testing.T) {
	st := newLRUStack()
	st.PushFront(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range rank")
		}
	}()
	st.RemoveAt(1)
}

func TestLRUStackAtPanicsOutOfRange(t *testing.T) {
	st := newLRUStack()
	for _, rank := range []int{-1, 0} {
		mustPanic(t, func() { st.At(rank) })
	}
	st.PushFront(1)
	for _, rank := range []int{-1, 1} {
		mustPanic(t, func() { st.At(rank) })
	}
	if st.At(0) != 1 {
		t.Fatalf("At(0) = %d, want 1", st.At(0))
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range rank")
		}
	}()
	f()
}

func TestLRUStackSlotRecycling(t *testing.T) {
	// Heavy churn through a small stack must reuse slots in place: the
	// slot array never grows past its initial length.
	st := newLRUStack()
	for i := 0; i < 8; i++ {
		st.PushFront(Addr(i))
	}
	for i := 0; i < 100000; i++ {
		a := st.RemoveAt(i % 8)
		st.PushFront(a)
		if len(st.slots) != initialSlots {
			t.Fatalf("op %d: slot array grew to %d", i, len(st.slots))
		}
	}
	if st.Len() != 8 {
		t.Fatalf("Len = %d, want 8", st.Len())
	}
}

// TestLRUStackGeneratorShaped drives the stack the way Generator does —
// re-touches at random depths, cold pushes, and wraps to the oldest block
// once a footprint is reached — long enough to cross the doubling path
// twice and compact in place many times, checking every read against the
// reference.
func TestLRUStackGeneratorShaped(t *testing.T) {
	const footprint = 2000
	st := newLRUStack()
	ref := &sliceStack{}
	op := stats.NewRNG(21, 22)
	next := Addr(0)
	growths, compactions := 0, 0
	for i := 0; i < 60000; i++ {
		n, top := len(st.slots), st.top
		var got, want Addr
		switch u := op.Float64(); {
		case u < 0.7 && ref.Len() > 0:
			k := op.IntN(ref.Len())
			got, want = st.RemoveAt(k), ref.RemoveAt(k)
		case ref.Len() >= footprint:
			k := ref.Len() - 1
			got, want = st.RemoveAt(k), ref.RemoveAt(k)
		default:
			got, want = next, next
			next++
		}
		if got != want {
			t.Fatalf("op %d: removed %#x, want %#x", i, got, want)
		}
		st.PushFront(got)
		ref.PushFront(want)
		switch {
		case len(st.slots) > n:
			growths++
		case st.top <= top:
			compactions++
		}
		if st.Len() != ref.Len() {
			t.Fatalf("op %d: Len = %d, want %d", i, st.Len(), ref.Len())
		}
		if i%5000 == 0 {
			for k := 0; k < ref.Len(); k++ {
				if st.At(k) != ref.At(k) {
					t.Fatalf("op %d: At(%d) = %#x, want %#x", i, k, st.At(k), ref.At(k))
				}
			}
		}
	}
	if growths < 2 || compactions < 10 {
		t.Fatalf("%d growths and %d in-place compactions; the test must cross at least 2 and 10", growths, compactions)
	}
}

// FuzzLRUStack runs arbitrary op sequences against the reference. Each
// byte is one op: its low two bits pick a burst of cold pushes (long
// enough to reach the compaction and doubling paths), a move-to-front at
// a rank taken from the next byte, a wrap of the oldest block, or a bare
// removal.
func FuzzLRUStack(f *testing.F) {
	f.Add([]byte{0xfc, 0xfc, 0xfc, 0x01, 0x80, 0x02, 0x03, 0x10})
	f.Add([]byte{0x00, 0x01, 0x00, 0x02, 0x03, 0x03, 0x00})
	f.Add([]byte{0xfc, 0xfc, 0xfc, 0xfc, 0xfc, 0xfc, 0xfc, 0xfc, 0x03, 0x7f, 0x03, 0x22, 0xfc, 0xfc, 0xfc, 0xfc})
	f.Fuzz(func(t *testing.T, ops []byte) {
		st := newLRUStack()
		ref := &sliceStack{}
		next := Addr(0)
		for i := 0; i < len(ops); i++ {
			b := ops[i]
			switch b & 3 {
			case 0:
				for j := 0; j <= int(b>>2)*8; j++ {
					st.PushFront(next)
					ref.PushFront(next)
					next++
				}
			case 1, 3:
				if ref.Len() == 0 {
					continue
				}
				k := int(b>>2) % ref.Len()
				if i+1 < len(ops) {
					i++
					k = (k<<8 | int(ops[i])) % ref.Len()
				}
				got, want := st.RemoveAt(k), ref.RemoveAt(k)
				if got != want {
					t.Fatalf("op %d: RemoveAt(%d) = %#x, want %#x", i, k, got, want)
				}
				if b&3 == 1 {
					st.PushFront(got)
					ref.PushFront(want)
				}
			case 2:
				if ref.Len() == 0 {
					continue
				}
				k := ref.Len() - 1
				got, want := st.RemoveAt(k), ref.RemoveAt(k)
				if got != want {
					t.Fatalf("op %d: wrap removed %#x, want %#x", i, got, want)
				}
				st.PushFront(got)
				ref.PushFront(want)
			}
			if st.Len() != ref.Len() {
				t.Fatalf("op %d: Len = %d, want %d", i, st.Len(), ref.Len())
			}
		}
		for k := 0; k < ref.Len(); k++ {
			if st.At(k) != ref.At(k) {
				t.Fatalf("At(%d) = %#x, want %#x", k, st.At(k), ref.At(k))
			}
		}
	})
}
