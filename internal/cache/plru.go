package cache

import "fmt"

// ReplacementPolicy selects the victim-selection scheme of a bank.
//
// The paper's design assumes true LRU in every bank (the MSA profiler's
// inclusion property is defined over it). Real L2 banks usually implement
// tree pseudo-LRU, which approximates the recency order with one bit per
// tree node; the TreePLRU option lets the repository quantify how much of
// the partitioning benefit survives that approximation (see the PLRU
// ablation benchmark).
type ReplacementPolicy int

const (
	// LRU is true least-recently-used replacement (the paper's model).
	LRU ReplacementPolicy = iota
	// TreePLRU is binary-tree pseudo-LRU. Way partitioning is honoured by
	// steering the tree walk away from subtrees that contain none of the
	// requesting core's ways (the same mechanism hardware way-masking
	// uses, e.g. Intel CAT on PLRU caches). Requires a way count of 2, 4
	// or 8.
	TreePLRU
)

func (p ReplacementPolicy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case TreePLRU:
		return "TreePLRU"
	default:
		return fmt.Sprintf("ReplacementPolicy(%d)", int(p))
	}
}

// validatePLRU checks TreePLRU's structural requirements.
func validatePLRU(ways int) error {
	if ways < 2 || ways&(ways-1) != 0 {
		return fmt.Errorf("cache: TreePLRU needs a power-of-two way count of at least 2, got %d", ways)
	}
	return nil
}

// plruState holds a bank's tree bits, one uint32 per set. Node i's bit
// (heap indexing, root = 1) points toward the pseudo-LRU half of its
// subtree: 0 = left, 1 = right.
type plruState struct {
	bits []uint32
	ways int
	// ownedSubtree[core][node] reports whether the subtree rooted at node
	// contains at least one way owned by core. Recomputed on
	// SetWayOwners; ownership is uniform across a bank's sets, so one
	// table serves every set.
	ownedSubtree [MaxCores][]bool
}

func newPLRUState(sets, ways int) *plruState {
	p := &plruState{bits: make([]uint32, sets), ways: ways}
	for c := range p.ownedSubtree {
		p.ownedSubtree[c] = make([]bool, 2*ways)
	}
	return p
}

// rebuildOwnership refreshes the per-core subtree ownership tables from the
// bank's way-owner masks.
func (p *plruState) rebuildOwnership(owners []OwnerMask) {
	for c := 0; c < MaxCores; c++ {
		t := p.ownedSubtree[c]
		// Leaves: node ways+w corresponds to way w.
		for w := 0; w < p.ways; w++ {
			t[p.ways+w] = owners[w].Has(c)
		}
		for n := p.ways - 1; n >= 1; n-- {
			t[n] = t[2*n] || t[2*n+1]
		}
	}
}

// victim walks the tree toward the pseudo-LRU way, overriding directions
// whose subtree holds none of core's ways. Returns -1 when core owns
// nothing.
func (p *plruState) victim(set int, core int) int {
	t := p.ownedSubtree[core]
	if !t[1] {
		return -1
	}
	bits := p.bits[set]
	node := 1
	for node < p.ways {
		next := 2 * node
		if bits>>uint(node)&1 == 1 {
			next = 2*node + 1
		}
		if !t[next] {
			next ^= 1 // forced the other way: partition constraint
		}
		node = next
	}
	return node - p.ways
}

// touch marks way as recently used: every bit on the root path points away
// from it.
func (p *plruState) touch(set, way int) {
	bits := p.bits[set]
	node := p.ways + way
	for node > 1 {
		parent := node / 2
		if node == 2*parent {
			bits |= 1 << uint(parent) // used left, point right
		} else {
			bits &^= 1 << uint(parent) // used right, point left
		}
		node = parent
	}
	p.bits[set] = bits
}
