package sim

// Test fixtures shared with the external sim_test package.
var (
	TestConfig = testConfig
	SpecsFor   = specsFor
	MixedSet   = mixedSet
)
