package chain

import "errors"

// EVM-calibrated gas schedule (post-Berlin costs, simplified to the
// operations our contracts perform). Table II of the paper reports gas on
// the Rinkeby testnet; charging the same schedule for the same storage and
// precompile work reproduces its magnitudes.
const (
	// GasTxBase is the intrinsic cost of any transaction.
	GasTxBase = 21000
	// GasSStoreSet is charged when a storage slot goes zero → non-zero.
	GasSStoreSet = 20000
	// GasSStoreReset is charged when a non-zero slot is rewritten.
	GasSStoreReset = 5000
	// GasSStoreClear is charged when a slot is deleted (refunds ignored).
	GasSStoreClear = 5000
	// GasSLoad is the (cold) storage read cost.
	GasSLoad = 2100
	// GasLogBase, GasLogTopic, GasLogDataByte meter event emission.
	GasLogBase     = 375
	GasLogTopic    = 375
	GasLogDataByte = 8
	// GasCalldataByte approximates the average calldata byte cost.
	GasCalldataByte = 12
	// GasCreateBase and GasCodeDepositByte meter contract deployment.
	GasCreateBase      = 32000
	GasCodeDepositByte = 200
	// Precompile costs for on-chain proof verification (EIP-1108).
	GasPairingBase    = 45000
	GasPairingPerPair = 34000
	GasEcMul          = 6000
	GasEcAdd          = 150
	// GasHashPerWord meters hashing (keccak-equivalent).
	GasHashBase    = 30
	GasHashPerWord = 6
	// GasValueTransfer is the stipend-free cost of moving native value.
	GasValueTransfer = 9000
)

// ErrOutOfGas is returned when a call exceeds its gas limit.
var ErrOutOfGas = errors.New("chain: out of gas")

// DefaultGasLimit is the per-transaction gas limit used when a transaction
// does not specify one.
const DefaultGasLimit = 30_000_000

// GasMeter tracks gas consumption of one call.
type GasMeter struct {
	limit uint64
	used  uint64
}

// NewGasMeter returns a meter with the given limit.
func NewGasMeter(limit uint64) *GasMeter { return &GasMeter{limit: limit} }

// Charge consumes amount gas, returning ErrOutOfGas when the limit is hit.
func (g *GasMeter) Charge(amount uint64) error {
	if g.used+amount > g.limit {
		g.used = g.limit
		return ErrOutOfGas
	}
	g.used += amount
	return nil
}

// Used returns the gas consumed so far.
func (g *GasMeter) Used() uint64 { return g.used }
