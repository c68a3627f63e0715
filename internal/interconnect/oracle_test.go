package interconnect

import (
	"math"
	"math/rand/v2"
	"testing"
)

// refNetwork is the reference chain network Network must reproduce
// exactly: it rounds each hop's wire latency from perHop as the message
// crosses it.
type refNetwork struct {
	perHop     float64
	flitCycles int64
	linkFree   [][2]int64
	stats      Stats
}

func (n *refNetwork) Transfer(src, dst int, start int64, flits int64) int64 {
	n.stats.Transfers++
	if src == dst {
		return start
	}
	dir, step := 0, 1
	if dst < src {
		dir, step = 1, -1
	}
	hops := step * (dst - src)
	n.stats.TotalHops += uint64(hops)
	cursor, queued, node := start, int64(0), src
	for h := 0; h < hops; h++ {
		link := node
		if dir == 1 {
			link = node - 1
		}
		depart := cursor
		if free := n.linkFree[link][dir]; free > depart {
			queued += free - depart
			depart = free
		}
		n.linkFree[link][dir] = depart + flits*n.flitCycles
		cursor = depart + int64(math.Round(float64(h+1)*n.perHop)) - int64(math.Round(float64(h)*n.perHop))
		node += step
	}
	n.stats.QueueCycles += uint64(queued)
	return cursor
}

// TestTransferMatchesPerHopFormula sends random traffic between every
// src/dst pair, contended on shared links and partly out of start order,
// at fractional per-hop latencies (the micro-replay's (70-10)/14 among
// them), and requires every arrival and the counters to match the
// per-hop rounding formula.
func TestTransferMatchesPerHopFormula(t *testing.T) {
	for _, perHop := range []float64{60.0 / 7, (70 - 10) / 14.0, 0.5, 1.0 / 3, 2.5, 0, 13} {
		for _, nodes := range []int{1, 2, 8, 11} {
			for _, flitCycles := range []int64{0, 1, 4} {
				got := MustNew(nodes, perHop, flitCycles)
				want := &refNetwork{perHop: perHop, flitCycles: flitCycles, linkFree: make([][2]int64, nodes-1)}
				rng := rand.New(rand.NewPCG(uint64(nodes), math.Float64bits(perHop)))
				now := int64(0)
				for i := 0; i < 4000; i++ {
					// Every pair in turn, then random pairs; starts mostly
					// advance but sometimes step back.
					src, dst := i%nodes, i/nodes%nodes
					if i >= nodes*nodes {
						src, dst = rng.IntN(nodes), rng.IntN(nodes)
					}
					now += int64(rng.IntN(6))
					start := now
					if rng.IntN(8) == 0 {
						start -= int64(rng.IntN(30))
					}
					flits := int64(1 + rng.IntN(5))
					if g, w := got.Transfer(src, dst, start, flits), want.Transfer(src, dst, start, flits); g != w {
						t.Fatalf("perHop %v nodes %d flitCycles %d transfer %d (%d->%d at %d, %d flits): arrives %d, formula %d",
							perHop, nodes, flitCycles, i, src, dst, start, flits, g, w)
					}
					if got.Stats() != want.stats {
						t.Fatalf("perHop %v nodes %d transfer %d: stats %+v, formula %+v", perHop, nodes, i, got.Stats(), want.stats)
					}
				}
			}
		}
	}
}
