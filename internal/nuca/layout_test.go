package nuca

import (
	"math"
	"testing"
)

func TestBankKinds(t *testing.T) {
	locals, centers := 0, 0
	for b := 0; b < NumBanks; b++ {
		switch BankKind(b) {
		case Local:
			locals++
		case Center:
			centers++
		}
	}
	if locals != 8 || centers != 8 {
		t.Fatalf("locals=%d centers=%d, want 8/8", locals, centers)
	}
	if Local.String() != "Local" || Center.String() != "Center" {
		t.Fatal("Kind strings wrong")
	}
}

func TestLocalBankAdjacency(t *testing.T) {
	for c := 0; c < NumCores; c++ {
		b := LocalBankOf(c)
		if CoreOfLocalBank(b) != c {
			t.Fatalf("core %d local bank %d round-trips to %d", c, b, CoreOfLocalBank(b))
		}
		if Hops(c, b) != 0 {
			t.Fatalf("core %d to its Local bank: %d hops, want 0", c, Hops(c, b))
		}
		if Latency(c, b) != MinLatency {
			t.Fatalf("adjacent Local latency = %d, want %d", Latency(c, b), MinLatency)
		}
	}
}

func TestCoreOfLocalBankPanicsOnCenter(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CoreOfLocalBank(8)
}

func TestMaxLatencyAcrossChip(t *testing.T) {
	// Paper: core 0 accessing the Local bank next to core 7 takes 7 hops
	// and the maximum latency of 70 cycles.
	if Hops(0, LocalBankOf(7)) != 7 {
		t.Fatalf("core0->local7 hops = %d, want 7", Hops(0, LocalBankOf(7)))
	}
	if Latency(0, LocalBankOf(7)) != MaxLatency {
		t.Fatalf("core0->local7 latency = %d, want %d", Latency(0, LocalBankOf(7)), MaxLatency)
	}
}

func TestLatencyRange(t *testing.T) {
	for c := 0; c < NumCores; c++ {
		for b := 0; b < NumBanks; b++ {
			l := Latency(c, b)
			if l < MinLatency || l > MaxLatency {
				t.Fatalf("latency core %d bank %d = %d outside [%d,%d]", c, b, l, MinLatency, MaxLatency)
			}
		}
	}
}

func TestCenterBanksHigherMeanLowerSpread(t *testing.T) {
	// Section II: Center banks have higher average latency than Local banks
	// but less variation across cores.
	var localSum, centerSum int64
	localMin, localMax := int64(1<<60), int64(0)
	centerMin, centerMax := int64(1<<60), int64(0)
	for c := 0; c < NumCores; c++ {
		for b := 0; b < NumBanks; b++ {
			l := Latency(c, b)
			if BankKind(b) == Local {
				localSum += l
				if l < localMin {
					localMin = l
				}
				if l > localMax {
					localMax = l
				}
			} else {
				centerSum += l
				if l < centerMin {
					centerMin = l
				}
				if l > centerMax {
					centerMax = l
				}
			}
		}
	}
	localMean := float64(localSum) / 64
	centerMean := float64(centerSum) / 64
	if centerMean <= localMean {
		t.Fatalf("center mean %.1f <= local mean %.1f", centerMean, localMean)
	}
	if centerMax-centerMin >= localMax-localMin {
		t.Fatalf("center spread %d >= local spread %d", centerMax-centerMin, localMax-localMin)
	}
}

func TestRouterOfInRange(t *testing.T) {
	for b := 0; b < NumBanks; b++ {
		r := RouterOf(b)
		if r < 0 || r >= NumCores {
			t.Fatalf("RouterOf(%d) = %d", b, r)
		}
	}
}

func TestNetworkLatencyOneWayConsistent(t *testing.T) {
	// Request + bank + response must approximate the headline latency.
	for c := 0; c < NumCores; c++ {
		for b := 0; b < NumBanks; b++ {
			round := 2*NetworkLatencyOneWay(c, b) + MinLatency
			diff := round - Latency(c, b)
			if diff < -1 || diff > 1 {
				t.Fatalf("core %d bank %d: split latency %d vs direct %d", c, b, round, Latency(c, b))
			}
		}
	}
}

func TestAdjacentCores(t *testing.T) {
	if got := AdjacentCores(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("AdjacentCores(0) = %v", got)
	}
	if got := AdjacentCores(7); len(got) != 1 || got[0] != 6 {
		t.Fatalf("AdjacentCores(7) = %v", got)
	}
	if got := AdjacentCores(3); len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("AdjacentCores(3) = %v", got)
	}
	if !Adjacent(2, 3) || !Adjacent(3, 2) || Adjacent(2, 4) || Adjacent(5, 5) {
		t.Fatal("Adjacent predicate wrong")
	}
}

func TestBoundsPanics(t *testing.T) {
	for _, f := range []func(){
		func() { BankKind(-1) },
		func() { BankKind(16) },
		func() { LocalBankOf(8) },
		func() { Hops(8, 0) },
		func() { Hops(0, 16) },
		func() { AdjacentCores(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic for out-of-range argument")
				}
			}()
			f()
		}()
	}
}

// TestDropLatencyCenterConstant pins the Center-bank drop-link latency to
// the Table I derivation: half of the (MaxLatency-MinLatency)/7 per-hop
// round trip, and zero for chain banks.
func TestDropLatencyCenterConstant(t *testing.T) {
	want := int64((MaxLatency - MinLatency) / (2 * 7))
	if want <= 0 {
		t.Fatalf("derived Center drop latency %d not positive; Table I constants changed?", want)
	}
	centers, chains := 0, 0
	for b := 0; b < NumBanks; b++ {
		got := DropLatency(b)
		switch BankKind(b) {
		case Center:
			centers++
			if got != want {
				t.Fatalf("bank %d (Center): DropLatency %d, want %d", b, got, want)
			}
		default:
			chains++
			if got != 0 {
				t.Fatalf("bank %d (%v): DropLatency %d, want 0", b, BankKind(b), got)
			}
		}
	}
	if centers == 0 || chains == 0 {
		t.Fatalf("bank classification degenerate: %d center, %d chain", centers, chains)
	}
}

// TestRouterOfAndDropLatencyMatchFormulas checks every bank's router and
// drop-link latency against the floorplan: a Local bank sits on its core's
// router with no drop link; a Center bank attaches to the router nearest
// its position, clamped to the chain, across a drop link of half a per-hop
// round trip.
func TestRouterOfAndDropLatencyMatchFormulas(t *testing.T) {
	for b := 0; b < NumBanks; b++ {
		router, drop := b, int64(0)
		if b >= NumCores {
			router = int(math.Round(2.25 + 0.5*float64(b-NumCores)))
			router = min(max(router, 0), NumCores-1)
			drop = (MaxLatency - MinLatency) / (2 * maxHops)
		}
		if got := RouterOf(b); got != router {
			t.Errorf("RouterOf(%d) = %d, want %d", b, got, router)
		}
		if got := DropLatency(b); got != drop {
			t.Errorf("DropLatency(%d) = %d, want %d", b, got, drop)
		}
	}
	for _, b := range []int{-1, NumBanks} {
		for name, f := range map[string]func(){
			"RouterOf":    func() { RouterOf(b) },
			"DropLatency": func() { DropLatency(b) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%d) did not panic", name, b)
					}
				}()
				f()
			}()
		}
	}
}
