package core

// Test hooks shared with the external receiver tests.
var (
	TestCfg   = testCfg
	Collision = collision
)
