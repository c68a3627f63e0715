// Package interconnect models the on-chip network that carries L2 requests
// and responses between cores and cache banks. The baseline chip (Fig. 1)
// places the eight cores and their Local banks along a line with the Center
// banks mid-chip, so the network is a chain of routers with bidirectional
// links; messages pay a per-hop wire latency plus serialisation and
// queueing on each link they cross.
//
// The model is a resource-timeline simulation: each directed link remembers
// when it becomes free, so two messages crossing the same link back-to-back
// observe realistic queueing without simulating individual flits.
package interconnect

import (
	"fmt"
	"math"
)

// Stats aggregates network activity.
type Stats struct {
	Transfers   uint64
	TotalHops   uint64
	QueueCycles uint64 // cycles spent waiting for busy links
}

// Network is a chain of `nodes` routers; link i connects node i and i+1.
type Network struct {
	nodes      int
	perHop     float64 // one-way per-hop wire+router latency, cycles
	flitCycles int64   // serialisation occupancy per link, per message
	// wire[h] is the wire latency of a transfer's (h+1)-th hop,
	// round((h+1)*perHop) - round(h*perHop): the per-hop shares that make
	// an uncontended h-hop transfer take exactly round(h*perHop).
	wire []int64
	// linkFree[i][d] is the first free cycle of link i in direction d
	// (0 = towards higher node ids, 1 = towards lower).
	linkFree [][2]int64
	stats    Stats
}

// New builds a chain network. perHop may be fractional (the paper's 10-to-70
// cycle span over 7 hops implies 60/7 cycles per hop); path latencies are
// rounded so that an h-hop uncontended transfer takes exactly
// round(h*perHop) cycles.
func New(nodes int, perHop float64, flitCycles int64) (*Network, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("interconnect: need at least one node, got %d", nodes)
	}
	if perHop < 0 || flitCycles < 0 {
		return nil, fmt.Errorf("interconnect: negative latency parameters")
	}
	wire := make([]int64, nodes-1)
	for h := range wire {
		wire[h] = int64(math.Round(float64(h+1)*perHop)) - int64(math.Round(float64(h)*perHop))
	}
	return &Network{
		nodes:      nodes,
		perHop:     perHop,
		flitCycles: flitCycles,
		wire:       wire,
		linkFree:   make([][2]int64, nodes-1),
	}, nil
}

// MustNew is New that panics on invalid parameters.
func MustNew(nodes int, perHop float64, flitCycles int64) *Network {
	n, err := New(nodes, perHop, flitCycles)
	if err != nil {
		panic(err)
	}
	return n
}

// Nodes returns the router count.
func (n *Network) Nodes() int { return n.nodes }

// Stats returns a snapshot of the counters.
func (n *Network) Stats() Stats { return n.stats }

// PathLatency returns the uncontended latency of an h-hop transfer.
func (n *Network) PathLatency(hops int) int64 {
	return int64(math.Round(float64(hops) * n.perHop))
}

// Transfer sends a message of `flits` flits from src to dst starting no
// earlier than `start`, and returns its arrival cycle. Each crossed link is
// occupied for flits*flitCycles; a busy link delays the message. Transfers
// must be issued in non-decreasing start order across the simulation (the
// event queue guarantees this); out-of-order calls still work but model
// contention conservatively.
func (n *Network) Transfer(src, dst int, start int64, flits int64) int64 {
	if src < 0 || src >= n.nodes || dst < 0 || dst >= n.nodes {
		panic(fmt.Sprintf("interconnect: transfer %d->%d outside [0,%d)", src, dst, n.nodes))
	}
	n.stats.Transfers++
	if src == dst {
		return start
	}
	dir := 0
	step := 1
	if dst < src {
		dir = 1
		step = -1
	}
	hops := step * (dst - src)
	n.stats.TotalHops += uint64(hops)
	occupancy := flits * n.flitCycles

	cursor := start
	queued := int64(0)
	node := src
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
		n.linkFree[link][dir] = depart + occupancy
		cursor = depart + n.wire[h]
		node += step
	}
	n.stats.QueueCycles += uint64(queued)
	return cursor
}

// ResetStats zeroes the counters (link timelines are untouched).
func (n *Network) ResetStats() { n.stats = Stats{} }
