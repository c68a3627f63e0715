package trace

import (
	"fmt"
	"math"
	"sort"

	"bankaware/internal/stats"
)

// Event is one step of a workload: Gap non-memory instructions followed by
// one memory access. The CPU model charges Gap/width cycles of computation
// and then issues the access.
type Event struct {
	Gap    int
	Access Access
}

// Generator produces an infinite, deterministic stream of memory accesses
// realising a Spec's stack-distance distribution. It maintains the true LRU
// stack of previously touched blocks; a "reuse" draw re-touches the block at
// a sampled depth, a "cold" draw touches a brand-new block (or wraps to the
// oldest block once the footprint bound is reached).
type Generator struct {
	spec Spec
	rng  *stats.RNG

	stack         *lruStack
	cumMass       []float64 // cumulative hit mass per bucket
	reuseCut      float64   // below: stack-distance reuse draw
	loopCut       float64   // below (and above reuseCut): cyclic sweep draw
	blocksPerWay  int
	footprint     int // blocks; 0 = unbounded
	nextBlock     uint64
	base          Addr
	loopBase      Addr
	loopBlocks    uint64
	loopPtr       uint64
	gapP          float64 // geometric parameter for instruction gaps
	totalAccesses uint64
}

// LoopOffset is the distance from a generator's Base to its loop region,
// far enough that the two never alias. A generator's blocks fill two
// contiguous ranges: first touches take the blocks from Base up, in order,
// and the loop sweeps the blocks from Base+LoopOffset up.
const LoopOffset Addr = 1 << 38

// GeneratorConfig carries the environment-dependent parameters of a
// generator. The zero value selects the paper's baseline geometry.
type GeneratorConfig struct {
	// BlocksPerWay converts the spec's way-equivalent buckets into block
	// depths. Defaults to DefaultBlocksPerWay (2048).
	BlocksPerWay int
	// Base is the first byte address the workload touches. Core-private
	// address spaces are produced by spacing bases apart; the default
	// derives a disjoint region from the seed id passed to NewGenerator.
	Base Addr
}

// NewGenerator builds a deterministic generator for spec. Streams are
// reproducible from (rng seed, spec); use distinct sub-RNGs per core (via
// stats.RNG.Split) for multiprogrammed mixes.
func NewGenerator(spec Spec, rng *stats.RNG, cfg GeneratorConfig) (*Generator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	bpw := cfg.BlocksPerWay
	if bpw <= 0 {
		bpw = DefaultBlocksPerWay
	}
	hm, cold, loop := spec.normalized()
	cum := make([]float64, len(hm))
	acc := 0.0
	for i, m := range hm {
		acc += m
		cum[i] = acc
	}
	// Split advances rng by two draws. The child it returns is unused (the
	// LRU stack needs no randomness), but the draws stay so that every
	// workload's stream, and every report built from it, is unchanged.
	rng.Split(0xface)
	g := &Generator{
		spec:         spec,
		rng:          rng,
		stack:        newLRUStack(),
		cumMass:      cum,
		reuseCut:     1 - cold - loop,
		loopCut:      1 - cold,
		blocksPerWay: bpw,
		base:         cfg.Base,
	}
	if loop > 0 {
		g.loopBlocks = uint64(math.Round(spec.LoopWays * float64(bpw)))
		if g.loopBlocks < 1 {
			g.loopBlocks = 1
		}
		g.loopBase = cfg.Base + LoopOffset
	}
	if spec.FootprintWays > 0 {
		g.footprint = int(spec.FootprintWays * float64(bpw))
		if g.footprint < 1 {
			g.footprint = 1
		}
	}
	mean := spec.GapMeanInstructions()
	g.gapP = 1 / (mean + 1) // geometric with mean `mean`
	return g, nil
}

// MustGenerator is NewGenerator that panics on an invalid spec. Catalog
// specs are validated by tests, so example code uses this form.
func MustGenerator(spec Spec, rng *stats.RNG, cfg GeneratorConfig) *Generator {
	g, err := NewGenerator(spec, rng, cfg)
	if err != nil {
		panic(err)
	}
	return g
}

// Clone returns an independent generator in g's exact state: the two
// produce the same stream from here on. They share only the spec and the
// cumulative-mass table, which nothing writes after construction.
func (g *Generator) Clone() *Generator {
	c := *g
	c.rng = g.rng.Clone()
	c.stack = g.stack.clone()
	return &c
}

// Spec returns the generator's workload spec.
func (g *Generator) Spec() Spec { return g.spec }

// Accesses returns the number of accesses generated so far.
func (g *Generator) Accesses() uint64 { return g.totalAccesses }

// Next produces the next event in the stream.
func (g *Generator) Next() Event {
	gap := g.rng.Geometric(g.gapP)
	addr := g.nextAddr()
	g.totalAccesses++
	return Event{
		Gap: gap,
		Access: Access{
			Addr:  addr,
			Write: g.rng.Bool(g.spec.WriteFrac),
		},
	}
}

func (g *Generator) nextAddr() Addr {
	u := g.rng.Float64()
	if u >= g.reuseCut && u < g.loopCut {
		// Cyclic sweep: the next block of the loop working set, in order.
		// Its stack distance is exactly the working-set size, producing
		// the LRU cliff at LoopWays.
		addr := g.loopBase + Addr(g.loopPtr<<BlockBits)
		g.loopPtr = (g.loopPtr + 1) % g.loopBlocks
		return addr
	}
	if u < g.reuseCut && g.stack.Len() > 0 {
		// Reuse draw: locate the bucket whose cumulative mass covers u,
		// then pick a uniform depth inside that bucket.
		scaled := u // cumMass is cumulative over normalised hit mass already
		b := sort.SearchFloat64s(g.cumMass, scaled)
		if b >= len(g.cumMass) {
			b = len(g.cumMass) - 1
		}
		lo := b * g.blocksPerWay
		depth := lo + g.rng.IntN(g.blocksPerWay)
		if depth >= g.stack.Len() {
			// The stack is not deep enough yet (warm-up) — treat as cold.
			return g.coldAddr()
		}
		addr := g.stack.RemoveAt(depth)
		g.stack.PushFront(addr)
		return addr
	}
	return g.coldAddr()
}

func (g *Generator) coldAddr() Addr {
	if g.footprint > 0 && g.stack.Len() >= g.footprint {
		// Footprint exhausted: wrap to the oldest block (circular
		// streaming). In any cache smaller than the footprint this is
		// indistinguishable from a compulsory miss, which is the behaviour
		// being modelled.
		addr := g.stack.RemoveAt(g.stack.Len() - 1)
		g.stack.PushFront(addr)
		return addr
	}
	addr := g.base + Addr(g.nextBlock<<BlockBits)
	g.nextBlock++
	g.stack.PushFront(addr)
	return addr
}

// String identifies the generator for logs.
func (g *Generator) String() string {
	return fmt.Sprintf("trace.Generator(%s)", g.spec.Name)
}
