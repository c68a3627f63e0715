package trace

import "slices"

// lruStack is an indexable LRU stack of block addresses: position 0 is the
// most recently used block. It supports the three operations the
// stack-distance generator needs — push a new block on top, remove the block
// at a given rank (to re-touch it), and query the size — each in O(log n),
// amortised. A plain slice with move-to-front would cost O(depth) per
// access, which is prohibitive for the deep reuse distances (tens of
// thousands of blocks) that workloads like bzip2 exhibit.
//
// Every push writes the next slot of an array, so slot order is push order
// and the live slots, read from the top down, are the stack. A Fenwick tree
// counts which slots are live: the block at rank r is the (Len-r)-th live
// slot, found by one binary-lifting descent, and removing it clears its
// count on the way down. Liveness is kept only in the tree, so a slot costs
// 12 bytes.
type lruStack struct {
	slots []Addr  // slots[i] is the block pushed into slot i; len is a power of two
	tree  []int32 // 1-based Fenwick tree of per-slot live counts, len(slots)+1 entries
	top   int     // next slot to push into
	live  int     // live slots, i.e. the stack's length
}

// initialSlots is the slot array's starting length. It must be a power of
// two: the descent starts at the tree's root, node len(slots).
const initialSlots = 1024

func newLRUStack() *lruStack {
	return &lruStack{
		slots: make([]Addr, initialSlots),
		tree:  make([]int32, initialSlots+1),
	}
}

// clone returns an independent copy of the stack.
func (s *lruStack) clone() *lruStack {
	c := *s
	c.slots = slices.Clone(s.slots)
	c.tree = slices.Clone(s.tree)
	return &c
}

// Len returns the number of blocks on the stack.
func (s *lruStack) Len() int { return s.live }

// PushFront makes addr the most recently used block.
func (s *lruStack) PushFront(addr Addr) {
	if s.top == len(s.slots) {
		s.makeRoom()
	}
	s.slots[s.top] = addr
	s.top++
	s.live++
	for i := s.top; i < len(s.tree); i += i & -i {
		s.tree[i]++
	}
}

// RemoveAt removes and returns the block at rank (0 = MRU). It panics if
// rank is out of range; callers clamp against Len.
func (s *lruStack) RemoveAt(rank int) Addr {
	s.checkRank(rank)
	addr := s.slots[s.descend(s.live-rank, 1)]
	s.live--
	return addr
}

// At returns the block at rank without removing it (used by tests). It
// panics if rank is out of range.
func (s *lruStack) At(rank int) Addr {
	s.checkRank(rank)
	return s.slots[s.descend(s.live-rank, 0)]
}

func (s *lruStack) checkRank(rank int) {
	if rank < 0 || rank >= s.live {
		panic("trace: lruStack rank out of range")
	}
}

// descend returns the slot holding the k-th live block (1-based, in push
// order) and subtracts dec from every tree node whose range holds that
// slot. Those nodes are exactly the ones the descent does not step past,
// so with dec 1 the walk down is also the point update that clears the
// slot.
func (s *lruStack) descend(k int, dec int32) int {
	pos := 0
	for step := len(s.slots); step > 0; step >>= 1 {
		if c := int(s.tree[pos+step]); c < k {
			pos += step
			k -= c
		} else {
			s.tree[pos+step] -= dec
		}
	}
	return pos
}

// makeRoom frees slots once the array is full. It turns the tree back into
// per-slot live counts in place (the inverse of the linear-time build),
// slides the live slots down to the start in push order and rebuilds the
// tree over them. The arrays double first when more than 3/4 of the slots
// are live, so each compaction frees at least a quarter of them and costs
// O(1) per push, amortised.
func (s *lruStack) makeRoom() {
	n := len(s.slots)
	old, counts := s.slots, s.tree
	for i := n; i >= 1; i-- {
		if j := i + i&-i; j <= n {
			counts[j] -= counts[i]
		}
	}
	if 4*s.live > 3*n {
		s.slots, s.tree = make([]Addr, 2*n), make([]int32, 2*n+1)
	}
	w := 0
	for i, addr := range old {
		if counts[i+1] != 0 {
			s.slots[w] = addr
			w++
		}
	}
	// Slots 0..w-1 are live and the rest free: node i, covering slots
	// (i-lowbit(i), i] in 1-based terms, counts the live ones among them.
	for i := 1; i < len(s.tree); i++ {
		s.tree[i] = int32(max(0, min(i, w)-(i-i&-i)))
	}
	s.top = w
}
