package contracts

// The exchange machine's test (machine_test.go) is in the external package
// contracts_test so that it can attach the indexer, which imports this
// package; it drives the chain through these helpers.
var (
	CTEnv        = ctEnv
	CTProve      = ctProve
	DeployToyPiK = deployToyPiK
	Call         = call
	MustSucceed  = mustSucceed
)
