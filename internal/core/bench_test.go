package core

import (
	"testing"

	"bankaware/internal/nuca"
	"bankaware/internal/trace"
)

// BenchmarkBankAwareAllocator measures one full Fig. 6 allocation.
func BenchmarkBankAwareAllocator(b *testing.B) {
	cat := trace.Catalog()
	curves := make([]MissCurve, nuca.NumCores)
	for i := range curves {
		ratios := cat[i%len(cat)].MissCurve(trace.MaxWays)
		c := make(MissCurve, len(ratios))
		for w, r := range ratios {
			c[w] = r * 1e6
		}
		curves[i] = c
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BankAware(curves, DefaultBankAware()); err != nil {
			b.Fatal(err)
		}
	}
}
