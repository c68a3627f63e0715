package nuca

import (
	"fmt"
	"strings"
)

// BankSet is a bitmask over the 16 L2 banks. The fault-injection layer uses
// it to mark banks failed; the allocators use it to describe the surviving
// capacity they may distribute. The zero value is the empty set.
type BankSet uint16

// With returns the set with bank b added.
func (s BankSet) With(b int) BankSet {
	mustBank(b)
	return s | 1<<uint(b)
}

// Has reports whether bank b is in the set.
func (s BankSet) Has(b int) bool {
	mustBank(b)
	return s&(1<<uint(b)) != 0
}

// Count returns the number of banks in the set.
func (s BankSet) Count() int {
	n := 0
	for b := 0; b < NumBanks; b++ {
		if s&(1<<uint(b)) != 0 {
			n++
		}
	}
	return n
}

// Banks returns the members in ascending bank order.
func (s BankSet) Banks() []int {
	var out []int
	for b := 0; b < NumBanks; b++ {
		if s&(1<<uint(b)) != 0 {
			out = append(out, b)
		}
	}
	return out
}

// SurvivingWays returns the total way capacity of the banks NOT in the set —
// the capacity a degraded allocator has left to distribute when s marks the
// failed banks.
func (s BankSet) SurvivingWays() int {
	return (NumBanks - s.Count()) * WaysPerBank
}

// String renders the set as a bank list ("{3,12}"); "{}" for the empty set.
func (s BankSet) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, b := range s.Banks() {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", b)
	}
	sb.WriteByte('}')
	return sb.String()
}
