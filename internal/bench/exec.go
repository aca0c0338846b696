package bench

import (
	"fmt"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/contracts"
)

// --- Execution layer: sealed tx/s of the journaled executor ---
//
// DataNFT transfers between disjoint client pairs, one produced block per
// round: what the chain executes and seals per second when nothing else
// (proofs, WAL, index folds) is in the way.

// ExecRow is one point of the execution-throughput experiment.
type ExecRow struct {
	Clients  int
	Txs      int
	Seconds  float64
	TxPerSec float64
}

// ExecThroughput measures sealed transactions per second for a population
// of clients exchanging DataNFTs in disjoint pairs. Each round is one block:
// every pair moves its token to the other side, so round r+1's transfers
// depend on round r's committed state. Setup (deploy, funding, the initial
// mints) is excluded from the clock.
func ExecThroughput(clients, rounds int) (ExecRow, error) {
	if clients%2 != 0 {
		return ExecRow{}, fmt.Errorf("bench: clients must be even, got %d", clients)
	}
	c := chain.New()
	if _, err := c.Deploy(contracts.DataNFTName, &contracts.DataNFT{}, contracts.DataNFTCodeSize); err != nil {
		return ExecRow{}, err
	}
	addrs := execClients(clients)
	fund(c, addrs)
	nonces, tokens, err := execSetup(c, addrs)
	if err != nil {
		return ExecRow{}, err
	}
	total, elapsed, err := execWorkload(c, addrs, nonces, tokens, 0, rounds)
	if err != nil {
		return ExecRow{}, err
	}
	return ExecRow{
		Clients:  clients,
		Txs:      total,
		Seconds:  elapsed.Seconds(),
		TxPerSec: float64(total) / elapsed.Seconds(),
	}, nil
}

// ExecSweep runs ExecThroughput over the client sizes recorded in
// EXPERIMENTS.md. Rounds shrink as the population grows so every row moves
// a comparable transaction volume.
func ExecSweep(clientSizes []int) ([]ExecRow, error) {
	rows := make([]ExecRow, 0, len(clientSizes))
	for _, clients := range clientSizes {
		row, err := ExecThroughput(clients, execRounds(clients))
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// execRounds is how many rounds a population of the given size runs in the
// recorded sweep.
func execRounds(clients int) int {
	return max(2, 4096/clients)
}
