package fastsim

import (
	"math"
	"sort"
	"sync"
	"testing"

	"bankaware/internal/sim"
	"bankaware/internal/stats"
	"bankaware/internal/trace"
)

// microEvent is one memory access of the reference stream, all its draws
// in one record.
type microEvent struct {
	gap  int32   // non-memory instructions before this access
	isL2 bool    // true when the access misses the L1 (stratified on h1)
	u2   float64 // miss-selection rank within the event's stratum block
	uB   float64 // bank placement draw
	uW   float64 // dirty-victim writeback draw
	uC   float64 // DRAM channel spread draw
}

// eagerStream is the reference stream: every event drawn up front.
type eagerStream struct {
	events []microEvent
	l2Idx  []int32
}

// eagerStreams is the reference for buildStreams plus on-demand drawing:
// it draws every core's whole stream at once.
func eagerStreams(seed uint64, profs []*profile) []eagerStream {
	base := stats.NewRNG(seed^0x7a57f00dcafe, seed^0x1b873593517cc1b5)
	streams := make([]eagerStream, len(profs))
	for c, p := range profs {
		rng := base.Split(uint64(c))
		gapMean := 1/p.gapP - 1
		n := int(float64(windowCycles)*4/(gapMean+1)*2) + 512
		streams[c] = newEagerStream(rng, p, n)
	}
	return streams
}

// newEagerStream draws n events block by block, with a full sort per
// L1-split block, and derives l2Idx afterwards.
func newEagerStream(rng *stats.RNG, p *profile, n int) eagerStream {
	st := eagerStream{events: make([]microEvent, n)}
	carry := 0.0
	u1 := make([]float64, missStride)
	for blk := 0; blk < n; blk += missStride {
		size := min(missStride, n-blk)
		want := float64(size)*(1-p.h1) + carry
		k := int(want)
		carry = want - float64(k)
		for i := 0; i < size; i++ {
			u1[i] = rng.Float64()
		}
		thresh := math.Inf(1)
		if k < size {
			sorted := append([]float64(nil), u1[:size]...)
			sort.Float64s(sorted)
			if k > 0 {
				thresh = sorted[k-1]
			} else {
				thresh = math.Inf(-1)
			}
		}
		for i := 0; i < size; i++ {
			ev := &st.events[blk+i]
			ev.gap = int32(rng.Geometric(p.gapP))
			ev.isL2 = u1[i] <= thresh
			ev.u2 = rng.Float64()
			ev.uB = rng.Float64()
			ev.uW = rng.Float64()
			ev.uC = rng.Float64()
		}
	}
	for i, ev := range st.events {
		if ev.isL2 {
			st.l2Idx = append(st.l2Idx, int32(i))
		}
	}
	return st
}

// eagerClassify is the reference for missClassifier: it classifies the
// whole stream at once, sorting each i.i.d. block, and returns flags by
// event position.
func eagerClassify(st *eagerStream, m2, runTarget float64) []bool {
	flags := make([]bool, len(st.events))
	iid := math.Inf(1)
	if m2 < 1 {
		iid = 1 / (1 - m2)
	}
	clustered := m2 > 0 && runTarget > iid*1.15
	stride := missStride
	if clustered {
		if b := int(runTarget / m2); b > stride {
			stride = b
		}
		if stride > 2048 {
			stride = 2048
		}
	}
	carry := 0.0
	for blk := 0; blk < len(st.l2Idx); blk += stride {
		end := min(blk+stride, len(st.l2Idx))
		size := end - blk
		want := float64(size)*m2 + carry
		k := int(want)
		carry = want - float64(k)
		if k <= 0 {
			continue
		}
		if k >= size {
			for _, idx := range st.l2Idx[blk:end] {
				flags[idx] = true
			}
			continue
		}
		if !clustered {
			buf := make([]float64, size)
			for i := 0; i < size; i++ {
				buf[i] = st.events[st.l2Idx[blk+i]].u2
			}
			sort.Float64s(buf)
			thresh := buf[k-1]
			marked := 0
			for i := 0; i < size && marked < k; i++ {
				idx := st.l2Idx[blk+i]
				if st.events[idx].u2 <= thresh {
					flags[idx] = true
					marked++
				}
			}
			continue
		}
		nRuns := int(float64(k)/runTarget + 0.5)
		if nRuns < 1 {
			nRuns = 1
		}
		spacing := size / nRuns
		rem := k
		for r := 0; r < nRuns && rem > 0; r++ {
			l := (rem + (nRuns - r - 1)) / (nRuns - r)
			if l > rem {
				l = rem
			}
			base := r * spacing
			slack := spacing - l
			if r == nRuns-1 {
				slack = size - base - l
			}
			startAt := base
			if slack > 0 {
				startAt += int(st.events[st.l2Idx[blk+base]].u2 * float64(slack+1))
				if startAt > base+slack {
					startAt = base + slack
				}
			}
			for i := startAt; i < startAt+l && i < size; i++ {
				flags[st.l2Idx[blk+i]] = true
			}
			rem -= l
		}
	}
	return flags
}

// catalogProfiles builds (or fetches) every catalog workload's profile at
// the 1/16-scale model geometry the fidelity harness runs.
func catalogProfiles(t *testing.T) []*profile {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.BankSets, cfg.L1.Sets = 128, 32
	specs := trace.Catalog()
	profs := make([]*profile, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			profs[i], errs[i] = profileFor(spec, cfg.BankSets, cfg.L1)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("profile %s: %v", specs[i].Name, err)
		}
	}
	return profs
}

// checkReplay reads stream st as a replay does, for reads events, and
// compares every event's gap and L2 flag, every L2 event's four draws and
// every miss flag with the eager reference. Like
// replayWindow it classifies into the flag storage of an earlier replay,
// buf, and returns the storage for the next.
func checkReplay(t *testing.T, name string, st *coreStream, ref *eagerStream, m2, runTarget float64, reads int, buf []bool) []bool {
	t.Helper()
	want := eagerClassify(ref, m2, runTarget)
	mc := newMissClassifier(st, m2, runTarget, buf)
	for idx := 0; idx < reads; idx++ {
		i := idx % len(ref.events)
		gap, u, miss := mc.next()
		got := microEvent{gap: int32(gap), isL2: u != nil}
		if u != nil {
			got.u2, got.uB, got.uW, got.uC = u.u2, u.uB, u.uW, u.uC
		}
		ev := ref.events[i]
		if !ev.isL2 {
			// The replay never reads an L1 hit's draws: the stream drops them.
			ev.u2, ev.uB, ev.uW, ev.uC = 0, 0, 0, 0
		}
		if got != ev || miss != want[i] {
			t.Fatalf("%s m2=%v runTarget=%v (clustered=%v): read %d (event %d) = %+v miss=%v, eager %+v miss=%v",
				name, m2, runTarget, mc.clustered, idx, i, got, miss, ev, want[i])
		}
	}
	return mc.flags
}

// TestLazyStreamsMatchEager pins the lazy micro-replay streams to the
// eager reference for every catalog workload: the events a replay reads
// equal the events drawn up front, and the incremental classifier marks
// exactly the misses the whole-stream classification marks, for i.i.d.
// and clustered placement alike.
func TestLazyStreamsMatchEager(t *testing.T) {
	profs := catalogProfiles(t)
	names := trace.CatalogNames()
	const seed = 20090922
	eager := eagerStreams(seed, profs)
	iid, clustered := 0, 0
	var buf []bool
	for c, p := range profs {
		for _, m2 := range []float64{0, 0.02, 0.1, 0.34, 0.5, 0.86, 1} {
			for _, runTarget := range []float64{1, p.runLenAt(m2), 8, 64} {
				// A fresh stream per point, so the replay's reads drive the
				// drawing, block by block.
				st := buildStreams(seed, profs)[c]
				reads := st.n / 3
				if m2 == 0.5 {
					reads = st.n // the whole stream, final partial blocks too
				}
				buf = checkReplay(t, names[c], st, &eager[c], m2, runTarget, reads, buf)
				if newMissClassifier(st, m2, runTarget, nil).clustered {
					clustered++
				} else {
					iid++
				}
			}
		}
	}
	if iid == 0 || clustered == 0 {
		t.Fatalf("placement coverage: %d i.i.d. points, %d clustered", iid, clustered)
	}
}

// TestLazyStreamWraps shortens a stream so a replay reads it three times
// over: the wrapped reads must repeat the first pass's events and flags,
// the final partial blocks included.
func TestLazyStreamWraps(t *testing.T) {
	profs := catalogProfiles(t)[:2]
	names := trace.CatalogNames()
	const seed, n = 7, 1000 // n is not a multiple of missStride
	base := stats.NewRNG(seed^0x7a57f00dcafe, seed^0x1b873593517cc1b5)
	for c, p := range profs {
		ref := newEagerStream(base.Split(uint64(c)), p, n)
		for _, pt := range []struct{ m2, runTarget float64 }{{0.3, 1}, {0.05, 40}} {
			st := buildStreams(seed, profs)[c]
			st.n = n
			checkReplay(t, names[c], st, &ref, pt.m2, pt.runTarget, 3*n, nil)
		}
	}
}

// TestKthSmallest checks the L1-split selection against a sort, with
// heavy ties.
func TestKthSmallest(t *testing.T) {
	rng := stats.NewRNG(3, 5)
	for trial := 0; trial < 2000; trial++ {
		buf := make([]float64, 1+rng.IntN(missStride))
		for i := range buf {
			buf[i] = float64(rng.IntN(8))
		}
		sorted := append([]float64(nil), buf...)
		sort.Float64s(sorted)
		k := 1 + rng.IntN(len(buf))
		if got := kthSmallest(buf, k); got != sorted[k-1] {
			t.Fatalf("kthSmallest(%v, %d) = %v, want %v", sorted, k, got, sorted[k-1])
		}
	}
}
