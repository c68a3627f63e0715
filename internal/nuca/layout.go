// Package nuca implements the DNUCA last-level-cache substrate of the
// baseline system (Section II): sixteen 1 MB, 8-way banks — eight Local
// banks, one adjacent to each core, and eight Center banks clustered
// mid-chip — with the paper's 10-to-70-cycle access latency range, plus the
// bank-aggregation schemes of Fig. 4 (Cascade, Address Hash, Parallel and
// the limited two-level cascade) used to stitch multiple banks into one
// core's partition.
package nuca

import (
	"fmt"
	"math"
)

// Baseline geometry (Table I / Fig. 1).
const (
	NumCores     = 8
	NumBanks     = 16 // banks 0..7 Local (bank i adjacent to core i), 8..15 Center
	WaysPerBank  = 8
	BankSets     = 2048 // 1 MB / 64 B / 8 ways
	MinLatency   = 10   // cycles, core to its own Local bank
	MaxLatency   = 70   // cycles, 7 hops away (core 0 to core 7's Local bank)
	maxHops      = 7
	perHopCycles = float64(MaxLatency-MinLatency) / maxHops // 60/7 cycles per hop
)

// Kind distinguishes the two bank classes of the floorplan.
type Kind int

const (
	Local Kind = iota
	Center
)

func (k Kind) String() string {
	if k == Local {
		return "Local"
	}
	return "Center"
}

// BankKind returns the class of bank b.
func BankKind(b int) Kind {
	mustBank(b)
	if b < NumCores {
		return Local
	}
	return Center
}

// LocalBankOf returns the Local bank adjacent to core c (bank id == core id
// in this floorplan).
func LocalBankOf(core int) int {
	mustCore(core)
	return core
}

// CoreOfLocalBank returns the core adjacent to Local bank b.
func CoreOfLocalBank(b int) int {
	mustBank(b)
	if b >= NumCores {
		panic(fmt.Sprintf("nuca: bank %d is a Center bank", b))
	}
	return b
}

// centerPosition returns the floorplan x-coordinate of Center bank index j
// (0..7). The Center banks sit clustered in the middle of the chip, which
// gives them a higher average but lower variance distance to the cores than
// the Local banks — the property Section II describes.
func centerPosition(j int) float64 {
	return 2.25 + 0.5*float64(j)
}

// RouterOf returns the chain-network router (0..NumCores-1) a bank attaches
// to. Local banks share their core's router; Center banks attach to the
// nearest router on the chain.
func RouterOf(b int) int {
	mustBank(b)
	return routers[b]
}

// DropLatency returns the extra one-way latency of bank b's drop link: a
// Center bank's +1 hop is not part of the router chain, so it costs half a
// per-hop round trip on top of the chain transfer to RouterOf(b). Local
// banks sit on the chain and add nothing.
func DropLatency(b int) int64 {
	mustBank(b)
	return drops[b]
}

// routers and drops hold RouterOf and DropLatency by bank.
var routers, drops = func() (r [NumBanks]int, d [NumBanks]int64) {
	for b := range r {
		r[b] = b
		if b >= NumCores {
			r[b] = min(max(int(math.Round(centerPosition(b-NumCores))), 0), NumCores-1)
			d[b] = (MaxLatency - MinLatency) / (2 * maxHops)
		}
	}
	return r, d
}()

// Hops returns the network distance between core c and bank b: the chain
// hops to the bank's router, plus one for a Center bank's drop link.
func Hops(core, bank int) int {
	mustCore(core)
	mustBank(bank)
	d := core - RouterOf(bank)
	if d < 0 {
		d = -d
	}
	if bank >= NumCores {
		d++
	}
	if d > maxHops {
		d = maxHops
	}
	return d
}

// Latency returns the uncontended L2 access latency from core to bank:
// MinLatency for the adjacent Local bank, growing per hop to MaxLatency at
// the far end of the chip (Section II: "from 10 up to 70 cycles").
func Latency(core, bank int) int64 {
	return MinLatency + int64(math.Round(float64(Hops(core, bank))*perHopCycles))
}

// NetworkLatencyOneWay returns the one-way wire latency between core and
// bank, i.e. half of the non-bank portion of Latency. The full-system
// simulator charges it on the request and response paths separately, with
// the 10-cycle bank access in between.
func NetworkLatencyOneWay(core, bank int) int64 {
	return int64(math.Round(float64(Hops(core, bank)) * perHopCycles / 2))
}

// AdjacentCores returns the cores physically adjacent to core on the chain —
// the only cores it may share a Local bank with (allocation Rule 3).
func AdjacentCores(core int) []int {
	mustCore(core)
	switch core {
	case 0:
		return []int{1}
	case NumCores - 1:
		return []int{NumCores - 2}
	default:
		return []int{core - 1, core + 1}
	}
}

// Adjacent reports whether cores a and b are neighbours on the chain.
func Adjacent(a, b int) bool {
	mustCore(a)
	mustCore(b)
	d := a - b
	return d == 1 || d == -1
}

func mustCore(c int) {
	if c < 0 || c >= NumCores {
		panic(fmt.Sprintf("nuca: core %d outside [0,%d)", c, NumCores))
	}
}

func mustBank(b int) {
	if b < 0 || b >= NumBanks {
		panic(fmt.Sprintf("nuca: bank %d outside [0,%d)", b, NumBanks))
	}
}
