package fastsim

import (
	"math"
	"sync"
	"testing"

	"bankaware/internal/cache"
	"bankaware/internal/cpu"
	"bankaware/internal/interconnect"
	"bankaware/internal/mem"
	"bankaware/internal/nuca"
	"bankaware/internal/sim"
	"bankaware/internal/trace"
)

// refReader reads an eager reference stream as a replay reads its stream:
// event idx % n, with the whole-stream classification's miss flag.
type refReader struct {
	st    *eagerStream
	flags []bool
	idx   int
}

func (r *refReader) next() (microEvent, bool) {
	i := r.idx % len(r.st.events)
	r.idx++
	return r.st.events[i], r.flags[i]
}

// refReplayWindow is the reference for replayWindow: the event loop over
// one record per event, scanning every core's clock through its
// cpu.Core for the min-clock pick and taking the measured end from the
// last event each core ran.
func refReplayWindow(cfg *sim.Config, streams []eagerStream, p windowParams) windowResult {
	var res windowResult
	cores := [8]*cpu.Core{}
	net := interconnect.MustNew(nuca.NumCores,
		(nuca.MaxLatency-nuca.MinLatency)/float64(2*7), cfg.FlitCycles)
	channels := cfg.MemChannels
	if channels == 0 {
		channels = 1
	}
	dram, err := mem.NewMemory(channels, cfg.Mem)
	if err != nil {
		panic(err)
	}
	var bankFree [nuca.NumBanks]int64
	var rr [8]int
	var warmInstr, measInstr [8]uint64
	var warmNow, measNow [8]int64
	var warmed [8]bool
	var missN, missSum [8]int64
	var readers [8]refReader
	for c := 0; c < nuca.NumCores; c++ {
		if !p.active[c] {
			continue
		}
		cores[c] = cpu.MustNew(c, cfg.CPU)
		readers[c] = refReader{st: &streams[c], flags: eagerClassify(&streams[c], p.m2[c], p.runLen[c])}
	}

	for {
		c := -1
		var tmin int64
		for i := 0; i < nuca.NumCores; i++ {
			if cores[i] == nil || cores[i].Now() >= windowCycles {
				continue
			}
			if c < 0 || cores[i].Now() < tmin {
				c, tmin = i, cores[i].Now()
			}
		}
		if c < 0 {
			break
		}
		core := cores[c]
		if !warmed[c] && core.Now() >= windowWarm {
			warmed[c] = true
			warmInstr[c] = core.Instructions()
			warmNow[c] = core.Now()
		}
		ev, isMiss := readers[c].next()
		issueAt := core.BeginAccess(int(ev.gap))
		if !ev.isL2 {
			measInstr[c] = core.Instructions()
			measNow[c] = core.Now()
			continue
		}
		var bank int
		if p.hashed {
			bank = int(ev.uB * nuca.NumBanks)
			if bank >= nuca.NumBanks {
				bank = nuca.NumBanks - 1
			}
		} else {
			ring := p.rings[c]
			if len(ring) == 0 {
				bank = c
				isMiss = true
			} else if isMiss {
				bank = ring[rr[c]%len(ring)]
				rr[c]++
			} else {
				bi := int(ev.uB * float64(len(ring)))
				if bi >= len(ring) {
					bi = len(ring) - 1
				}
				bank = ring[bi]
			}
		}
		router := nuca.RouterOf(bank)
		drop := nuca.DropLatency(bank)
		reqArrive := net.Transfer(c, router, issueAt, cfg.ReqFlits) + drop
		bankStart := reqArrive
		if bankFree[bank] > bankStart {
			bankStart = bankFree[bank]
		}
		bankFree[bank] = bankStart + cfg.BankBusyCycles
		dataReady := bankStart + nuca.MinLatency
		var done int64
		if isMiss {
			addr := uint64(ev.uC*float64(1<<30)) << 6
			if ev.uW < p.wbFrac[c] {
				dram.Writeback(addr^0x5bd1e995, dataReady)
			}
			memDone := dram.Request(addr, dataReady)
			done = net.Transfer(router, c, memDone+drop, cfg.DataFlits)
			if warmed[c] {
				missN[c]++
				missSum[c] += done - issueAt
			}
		} else {
			done = net.Transfer(router, c, dataReady+drop, cfg.DataFlits)
		}
		core.RecordFill(done)
		measInstr[c] = core.Instructions()
		measNow[c] = core.Now()
	}

	for c := 0; c < nuca.NumCores; c++ {
		if cores[c] == nil {
			continue
		}
		di := float64(measInstr[c]) - float64(warmInstr[c])
		dc := float64(measNow[c]) - float64(warmNow[c])
		if !warmed[c] || di <= 0 {
			di = float64(measInstr[c])
			dc = float64(measNow[c])
			if di <= 0 {
				di = 1
			}
		}
		res.cpi[c] = dc / di
		if missN[c] > 0 {
			res.missLat[c] = float64(missSum[c]) / float64(missN[c])
		}
	}
	return res
}

// replayCase is one scope with its eager reference streams.
type replayCase struct {
	sc  *Scope
	ref []eagerStream
}

func newReplayCase(seed uint64, workloads []string) (replayCase, error) {
	specs := make([]trace.Spec, len(workloads))
	for c, name := range workloads {
		specs[c] = trace.MustSpec(name)
	}
	sc, err := NewScope(scopeConfig(seed), specs)
	if err != nil {
		return replayCase{}, err
	}
	return replayCase{sc: sc, ref: eagerStreams(seed, sc.profs)}, nil
}

// check replays key on the scope, into flags' storage, and against the
// reference, and fails unless every bit of the two results agrees.
func (rc replayCase) check(t testing.TB, key windowKey, flags *[nuca.NumCores][]bool) {
	t.Helper()
	p := rc.sc.windowParams(key)
	got := rc.sc.replayWindow(p, flags)
	want := refReplayWindow(&rc.sc.cfg, rc.ref, p)
	for c := 0; c < nuca.NumCores; c++ {
		if math.Float64bits(got.cpi[c]) != math.Float64bits(want.cpi[c]) ||
			math.Float64bits(got.missLat[c]) != math.Float64bits(want.missLat[c]) {
			t.Fatalf("key active=%08b hashed=%v m2=%v: core %d cpi %v missLat %v, reference cpi %v missLat %v",
				key.active, key.alloc.hashed, key.m2, c, got.cpi[c], got.missLat[c], want.cpi[c], want.missLat[c])
		}
	}
}

// partitionedOwners gives core c the ways of its Local bank and one
// Center bank, with two ways of each Center bank shared by a pair of
// cores; cores in bare own nothing (an empty ring).
func partitionedOwners(bare uint8) (owners [nuca.NumBanks][nuca.WaysPerBank]cache.OwnerMask) {
	for c := 0; c < nuca.NumCores; c++ {
		if bare&(1<<c) != 0 {
			continue
		}
		for w := range owners[c] {
			owners[c][w] = owners[c][w].With(c)
		}
		center := nuca.NumCores + c
		for w := 0; w < 6; w++ {
			owners[center][w] = owners[center][w].With(c)
		}
		pair := nuca.NumCores + c/2*2
		for w := 6; w < nuca.WaysPerBank; w++ {
			owners[pair][w] = owners[pair][w].With(c)
		}
	}
	return owners
}

// TestReplayWindowMatchesReference runs the replay kernel against the
// reference loop over every catalog workload placed in mixes, at seeds 1
// and 7: hashed and partitioned keys (with empty-ring cores), several
// active masks and miss-ratio grid points. Every window must give the
// reference's result bit for bit, and the miss-flag storage carries over
// from window to window as it does between a System's replays.
func TestReplayWindowMatchesReference(t *testing.T) {
	names := trace.CatalogNames()
	var mixes [][]string
	for i := 0; i < len(names); i += nuca.NumCores {
		mix := make([]string, nuca.NumCores)
		for c := range mix {
			mix[c] = names[(i+c)%len(names)]
		}
		mixes = append(mixes, mix)
	}
	actives := []uint8{0xff, 0x0f, 0xa5, 0x01, 0x80}
	grids := [][nuca.NumCores]uint8{
		{0, 1, 2, 5, 10, 25, 40, 50},
		{50, 25, 7, 7, 3, 0, 12, 1},
		{4, 4, 4, 4, 4, 4, 4, 4},
	}
	if testing.Short() {
		mixes = mixes[:1]
		actives = actives[:2]
	}
	keys := 0
	for _, seed := range []uint64{1, 7} {
		for _, mix := range mixes {
			rc, err := newReplayCase(seed, mix)
			if err != nil {
				t.Fatal(err)
			}
			var flags [nuca.NumCores][]bool
			for _, active := range actives {
				for gi, grid := range grids {
					for _, alloc := range []allocKey{
						{hashed: true},
						{owners: partitionedOwners(0)},
						{owners: partitionedOwners(0x24 << (gi % 2))},
					} {
						key := windowKey{solveKey: solveKey{alloc: alloc, active: active}}
						for c := range key.m2 {
							if key.runs(c) {
								key.m2[c] = grid[c]
							}
						}
						rc.check(t, key, &flags)
						keys++
					}
				}
			}
		}
	}
	t.Logf("%d windows match the reference", keys)
}

// replayFuzzCase is FuzzReplayWindow's scope, built once: Table III set 1
// at seed 1.
var replayFuzzCase = sync.OnceValues(func() (replayCase, error) {
	return newReplayCase(1, []string{"apsi", "galgel", "gcc", "mgrid", "applu", "mesa", "facerec", "gzip"})
})

// FuzzReplayWindow fuzzes the window key — active set, hashed or
// partitioned placement, every way's owners and every core's grid index —
// and requires the replay kernel to match the reference loop bit for bit.
func FuzzReplayWindow(f *testing.F) {
	f.Add(uint8(0xff), true, []byte{}, []byte{5, 10, 15, 20, 25, 30, 35, 40})
	f.Add(uint8(0x5a), false, []byte{0xff, 1, 2, 4, 8, 16, 32, 64, 128, 3}, []byte{50, 0, 1, 2})
	f.Add(uint8(0x01), false, []byte{}, []byte{49})
	f.Fuzz(func(t *testing.T, active uint8, hashed bool, owners, m2 []byte) {
		if active == 0 {
			return // no core runs: the key names no window
		}
		rc, err := replayFuzzCase()
		if err != nil {
			t.Fatal(err)
		}
		key := windowKey{solveKey: solveKey{alloc: allocKey{hashed: hashed}, active: active}}
		if !hashed {
			for i, b := range owners {
				if i >= nuca.NumBanks*nuca.WaysPerBank {
					break
				}
				key.alloc.owners[i/nuca.WaysPerBank][i%nuca.WaysPerBank] = cache.OwnerMask(b)
			}
		}
		for c := range key.m2 {
			if key.runs(c) && c < len(m2) {
				key.m2[c] = m2[c] % (m2Steps + 1)
			}
		}
		var flags [nuca.NumCores][]bool
		rc.check(t, key, &flags)
	})
}
