package stats

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(1, 2)
	b := NewRNG(1, 2)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

// TestRNGMatchesStdlib pins RNG to the stdlib: every draw, whether it
// calls the PCG directly or goes through rand.Rand, must be bit-equal to
// the same operation on rand.New(rand.NewPCG(seed1, seed2)), for
// interleaved sequences of every method, across Split children too.
func TestRNGMatchesStdlib(t *testing.T) {
	for _, seed := range [][2]uint64{{1, 2}, {0, 0}, {2009, 7}, {0x7a57f00dcafe, 0x1b873593517cc1b5}} {
		got := NewRNG(seed[0], seed[1])
		want := rand.New(rand.NewPCG(seed[0], seed[1]))
		// The operation schedule comes from its own generator so the
		// interleaving is irregular but fixed.
		sched := rand.New(rand.NewPCG(seed[1], seed[0]))
		for i := 0; i < 4000; i++ {
			switch op := sched.IntN(9); op {
			case 0:
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %v step %d: Uint64 = %#x, want %#x", seed, i, g, w)
				}
			case 1:
				if g, w := got.Float64(), want.Float64(); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("seed %v step %d: Float64 = %v, want %v", seed, i, g, w)
				}
			case 2:
				n := 1 + sched.IntN(1000)
				if g, w := got.IntN(n), want.IntN(n); g != w {
					t.Fatalf("seed %v step %d: IntN(%d) = %d, want %d", seed, i, n, g, w)
				}
			case 3:
				n := 1 + sched.Int64N(1<<40)
				if g, w := got.Int64N(n), want.Int64N(n); g != w {
					t.Fatalf("seed %v step %d: Int64N(%d) = %d, want %d", seed, i, n, g, w)
				}
			case 4:
				p := sched.Float64()
				if g, w := got.Bool(p), want.Float64() < p; g != w {
					t.Fatalf("seed %v step %d: Bool(%v) = %v, want %v", seed, i, p, g, w)
				}
			case 5:
				p := 0.05 + 0.9*sched.Float64()
				w := 0
				for !(want.Float64() < p) {
					w++
				}
				if g := got.Geometric(p); g != w {
					t.Fatalf("seed %v step %d: Geometric(%v) = %d, want %d", seed, i, p, g, w)
				}
			case 6:
				n := sched.IntN(20)
				if g, w := got.Perm(n), want.Perm(n); !slices.Equal(g, w) {
					t.Fatalf("seed %v step %d: Perm(%d) = %v, want %v", seed, i, n, g, w)
				}
			case 7, 8:
				id := sched.Uint64N(16)
				a := want.Uint64() ^ (id * 0x9e3779b97f4a7c15)
				b := want.Uint64() ^ (id*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb)
				gc, wc := got.Split(id), rand.New(rand.NewPCG(a, b))
				for j := 0; j < 8; j++ {
					if g, w := gc.Float64(), wc.Float64(); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("seed %v step %d: Split(%d) draw %d = %v, want %v", seed, i, id, j, g, w)
					}
				}
			}
		}
	}
}

func TestRNGSplitN(t *testing.T) {
	a := NewRNG(11, 13).SplitN(4)
	b := NewRNG(11, 13).SplitN(4)
	for i := range a {
		for d := 0; d < 50; d++ {
			if a[i].Uint64() != b[i].Uint64() {
				t.Fatalf("SplitN stream %d diverged at draw %d", i, d)
			}
		}
	}
	c := NewRNG(11, 13).SplitN(2)
	if c[0].Uint64() == c[1].Uint64() {
		t.Fatal("adjacent SplitN streams start identically")
	}
}

// A clone continues its parent's stream through every draw kind, and
// drawing from one never advances the other.
func TestRNGClone(t *testing.T) {
	r := NewRNG(5, 6)
	for i := 0; i < 37; i++ {
		r.Uint64()
	}
	c := r.Clone()
	for i := 0; i < 200; i++ {
		if a, b := r.Uint64(), c.Uint64(); a != b {
			t.Fatalf("Uint64 draw %d: %d vs %d", i, a, b)
		}
		if a, b := r.IntN(1000+i), c.IntN(1000+i); a != b {
			t.Fatalf("IntN draw %d: %d vs %d", i, a, b)
		}
		if a, b := r.Geometric(0.1), c.Geometric(0.1); a != b {
			t.Fatalf("Geometric draw %d: %d vs %d", i, a, b)
		}
	}
	want := r.Clone().Uint64()
	c.Uint64()
	c.Uint64()
	if got := r.Uint64(); got != want {
		t.Fatal("drawing from a clone advanced its parent")
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	// Splitting with different ids must give different streams; splitting a
	// re-seeded parent with the same id must give the same stream.
	p1 := NewRNG(7, 9)
	p2 := NewRNG(7, 9)
	s1 := p1.Split(3)
	s2 := p2.Split(3)
	for i := 0; i < 100; i++ {
		if s1.Uint64() != s2.Uint64() {
			t.Fatalf("same-id splits diverged at draw %d", i)
		}
	}
	p3 := NewRNG(7, 9)
	s3 := p3.Split(4)
	s4 := NewRNG(7, 9).Split(3)
	same := true
	for i := 0; i < 16; i++ {
		if s3.Uint64() != s4.Uint64() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different-id splits produced identical prefixes")
	}
}

func TestRNGIntNBounds(t *testing.T) {
	r := NewRNG(42, 42)
	for i := 0; i < 10000; i++ {
		v := r.IntN(17)
		if v < 0 || v >= 17 {
			t.Fatalf("IntN(17) = %d out of range", v)
		}
	}
}

func TestRNGBoolEdges(t *testing.T) {
	r := NewRNG(1, 1)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestRNGBoolFrequency(t *testing.T) {
	r := NewRNG(5, 5)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) frequency = %.4f, want ~0.25", got)
	}
}

func TestGeometricMean(t *testing.T) {
	r := NewRNG(11, 13)
	const p = 0.2
	const n = 50000
	sum := 0
	for i := 0; i < n; i++ {
		sum += r.Geometric(p)
	}
	mean := float64(sum) / n
	want := (1 - p) / p // 4.0
	if math.Abs(mean-want) > 0.15 {
		t.Fatalf("Geometric(%.2f) mean = %.3f, want ~%.3f", p, mean, want)
	}
}

func TestGeometricPOne(t *testing.T) {
	r := NewRNG(1, 2)
	for i := 0; i < 100; i++ {
		if v := r.Geometric(1); v != 0 {
			t.Fatalf("Geometric(1) = %d, want 0", v)
		}
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestGeoMean(t *testing.T) {
	got := GeoMean([]float64{1, 4, 16})
	if math.Abs(got-4) > 1e-9 {
		t.Fatalf("GeoMean = %v, want 4", got)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("GeoMean(nil) != 0")
	}
}

func TestGeoMeanLeqMean(t *testing.T) {
	// AM-GM inequality as a property test over positive inputs.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v) + 1 // ensure positive
		}
		return GeoMean(xs) <= Mean(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStdDev(t *testing.T) {
	got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(got-2) > 1e-9 {
		t.Fatalf("StdDev = %v, want 2", got)
	}
	if StdDev([]float64{3}) != 0 {
		t.Fatal("StdDev of singleton != 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 10}, {50, 5.5}, {25, 3.25}, {75, 7.75},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("Percentile(nil) != 0")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestPercentileMonotone(t *testing.T) {
	f := func(raw []uint8, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		return Percentile(xs, pa) <= Percentile(xs, pb)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRatioAndPctReduction(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Fatal("Ratio with zero denominator should be 0")
	}
	if Ratio(3, 4) != 0.75 {
		t.Fatal("Ratio(3,4) != 0.75")
	}
	if got := PctReduction(30, 100); got != 70 {
		t.Fatalf("PctReduction = %v, want 70", got)
	}
	if PctReduction(5, 0) != 0 {
		t.Fatal("PctReduction zero baseline should be 0")
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Counter = %d, want 5", c.Value())
	}
}

func TestHistBasics(t *testing.T) {
	h := NewHist(4)
	for _, v := range []int{0, 1, 1, 3, 7, -2} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("Count = %d, want 6", h.Count())
	}
	if h.Bucket(1) != 2 {
		t.Fatalf("Bucket(1) = %d, want 2", h.Bucket(1))
	}
	if h.Bucket(0) != 2 { // includes clamped -2
		t.Fatalf("Bucket(0) = %d, want 2", h.Bucket(0))
	}
	if h.Overflow() != 1 {
		t.Fatalf("Overflow = %d, want 1", h.Overflow())
	}
	if h.Bucket(-1) != 0 {
		t.Fatal("Bucket(-1) should be 0")
	}
	if h.Bucket(99) != h.Overflow() {
		t.Fatal("out-of-range Bucket should return overflow")
	}
	wantMean := float64(0+1+1+3+7+0) / 6
	if math.Abs(h.Mean()-wantMean) > 1e-9 {
		t.Fatalf("Mean = %v, want %v", h.Mean(), wantMean)
	}
	h.Reset()
	if h.Count() != 0 || h.Overflow() != 0 || h.Bucket(1) != 0 {
		t.Fatal("Reset did not clear histogram")
	}
}

func TestHistCountInvariant(t *testing.T) {
	// Property: count equals the sum of all buckets plus overflow.
	f := func(vals []uint8) bool {
		h := NewHist(8)
		for _, v := range vals {
			h.Observe(int(v))
		}
		var sum uint64
		for i := 0; i < 8; i++ {
			sum += h.Bucket(i)
		}
		sum += h.Overflow()
		return sum == h.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistString(t *testing.T) {
	h := NewHist(2)
	h.Observe(0)
	h.Observe(5)
	s := h.String()
	if s == "" {
		t.Fatal("empty String()")
	}
}

func TestNewHistClampsSize(t *testing.T) {
	h := NewHist(0)
	h.Observe(0)
	if h.Count() != 1 {
		t.Fatal("NewHist(0) should still produce a usable histogram")
	}
}

func TestFormatPct(t *testing.T) {
	if got := FormatPct(0.271); got != "27.1%" {
		t.Fatalf("FormatPct = %q", got)
	}
}
