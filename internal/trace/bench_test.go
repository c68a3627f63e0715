package trace

import (
	"testing"

	"bankaware/internal/stats"
)

// BenchmarkGeneratorNext measures the stack-distance workload generator.
func BenchmarkGeneratorNext(b *testing.B) {
	g := MustGenerator(MustSpec("bzip2"), stats.NewRNG(5, 6), GeneratorConfig{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}
