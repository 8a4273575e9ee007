package core

// Fixtures of the in-package tests, exported to the external test
// package for montecarlo_test.go and walk_test.go.
var (
	ChainSystem  = chainSystem
	LoopSystem   = loopSystem
	RandomDAG    = randomDAG
	FanoutSystem = fanoutSystem
)
