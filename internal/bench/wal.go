package bench

import (
	"fmt"
	"sync"
	"time"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/contracts"
	"github.com/zkdet/zkdet/internal/snapshot"
	"github.com/zkdet/zkdet/internal/wal"
)

// --- Durability layer: WAL append throughput, durable vs in-memory sealing,
// --- and crash-recovery time.
//
// Three experiments characterize the durable state engine:
//
//  1. raw WAL appends — records/s and fsyncs per record across sync policies
//     and writer counts, showing what group commit buys: many concurrent
//     AppendSync callers amortize one disk flush;
//  2. sealed-transaction throughput with the durability hook attached,
//     against the in-memory chain on the identical workload — the engine's
//     acceptance criterion is staying within 2x at the default group-commit
//     window;
//  3. recovery time from a data directory: snapshot restore plus WAL-tail
//     replay, as a function of how many blocks the tail holds.

// WALAppendRow is one point of the raw append-throughput experiment.
type WALAppendRow struct {
	Mode      string // sync-each | group-commit | nosync
	Writers   int
	PayloadB  int
	Records   int
	Seconds   float64
	RecPerSec float64
	MBPerSec  float64
	Syncs     uint64 // fsyncs issued; group commit's whole point is Syncs << Records
}

// walOptions maps an experiment mode onto the log's sync policy.
func walOptions(dir, mode string) (wal.Options, error) {
	opts := wal.Options{Dir: dir}
	switch mode {
	case "sync-each":
		opts.GroupCommit = -1
	case "group-commit":
		// zero value: the default 2ms batching window
	case "nosync":
		opts.NoSync = true
	default:
		return opts, fmt.Errorf("bench: unknown WAL mode %q", mode)
	}
	return opts, nil
}

// WALAppend measures append throughput for the given sync mode: writers
// goroutines each AppendSync records/writers payloads of payloadB bytes.
func WALAppend(dir, mode string, writers, records, payloadB int) (WALAppendRow, error) {
	opts, err := walOptions(dir, mode)
	if err != nil {
		return WALAppendRow{}, err
	}
	l, err := wal.Open(opts)
	if err != nil {
		return WALAppendRow{}, err
	}
	defer l.Close()

	payload := make([]byte, payloadB)
	for i := range payload {
		payload[i] = byte(i)
	}
	per := records / writers
	errs := make(chan error, writers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := l.AppendSync(1, payload); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return WALAppendRow{}, err
	default:
	}
	st := l.Stats()
	total := per * writers
	return WALAppendRow{
		Mode:      mode,
		Writers:   writers,
		PayloadB:  payloadB,
		Records:   total,
		Seconds:   elapsed.Seconds(),
		RecPerSec: float64(total) / elapsed.Seconds(),
		MBPerSec:  float64(total*payloadB) / elapsed.Seconds() / (1 << 20),
		Syncs:     st.Syncs,
	}, nil
}

// WALAppendSweep runs WALAppend over modes × writer counts. dirFor must
// return a fresh directory per call (each cell gets its own log).
func WALAppendSweep(dirFor func() string, modes []string, writerCounts []int, records, payloadB int) ([]WALAppendRow, error) {
	var rows []WALAppendRow
	for _, mode := range modes {
		for _, writers := range writerCounts {
			row, err := WALAppend(dirFor(), mode, writers, records, payloadB)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// DurableRow is one point of the durable-vs-memory sealing experiment.
type DurableRow struct {
	Mode        string // memory | durable | durable-nosync
	Clients     int
	Txs         int
	Seconds     float64
	TxPerSec    float64
	Slowdown    float64 // memory tx/s ÷ this mode's tx/s (1.0 for memory)
	Syncs       uint64
	Checkpoints uint64
}

// execWorkload is the DataNFT bounce between disjoint client pairs that
// ExecThroughput times, run on whatever chain the caller prepared (the
// durable experiments attach the durability hook first). It returns the
// transaction count and the timed duration.
// startRound carries the bounce parity across split runs: round r moves each
// token even→odd or odd→even depending on r's parity, so a caller resuming
// the workload must continue the round count, not restart it.
func execWorkload(c *chain.Chain, addrs []chain.Address, nonces []uint64, tokens []uint64, startRound, rounds int) (int, time.Duration, error) {
	start := time.Now()
	total := 0
	for r := startRound; r < startRound+rounds; r++ {
		txs := make([]chain.Transaction, len(tokens))
		for j := range txs {
			from, to := 2*j, 2*j+1
			if r%2 == 1 {
				from, to = to, from
			}
			txs[j] = chain.Transaction{
				From: addrs[from], Contract: contracts.DataNFTName, Method: "transfer",
				Args:  contracts.EncodeArgs(contracts.U64(tokens[j]), addrs[to][:]),
				Nonce: nonces[from],
			}
			nonces[from]++
		}
		for i, out := range c.ProduceBlock(txs).Outcomes {
			if out.Err != nil {
				return 0, 0, fmt.Errorf("round %d tx %d: %w", r, i, out.Err)
			}
			if out.Receipt.Err != nil {
				return 0, 0, fmt.Errorf("round %d tx %d: %w", r, i, out.Receipt.Err)
			}
		}
		total += len(txs)
	}
	return total, time.Since(start), nil
}

// execClients derives the client addresses. Funding them is the caller's
// job: for the recovery experiment the faucet credits are part of the
// deterministic genesis a restarted engine re-creates before Recover, so
// they must not be buried inside the timed/logged workload.
func execClients(clients int) []chain.Address {
	addrs := make([]chain.Address, clients)
	for i := range addrs {
		addrs[i] = chain.AddressFromString(fmt.Sprintf("wal-client-%06d", i))
	}
	return addrs
}

func fund(c *chain.Chain, addrs []chain.Address) {
	for _, a := range addrs {
		c.Faucet(a, 1_000_000_000)
	}
}

// execSetup mints one token per client pair — the untimed prologue shared
// by every sealing mode. It seals the mint block.
func execSetup(c *chain.Chain, addrs []chain.Address) ([]uint64, []uint64, error) {
	clients := len(addrs)
	nonces := make([]uint64, clients)
	uri := []byte("bench-uri")
	commit := []byte("bench-commit")
	mints := make([]chain.Transaction, clients/2)
	for j := range mints {
		from := 2 * j
		mints[j] = chain.Transaction{
			From: addrs[from], Contract: contracts.DataNFTName, Method: "mint",
			Args:  contracts.EncodeArgs(uri, commit),
			Nonce: nonces[from],
		}
		nonces[from]++
	}
	tokens := make([]uint64, clients/2)
	for j, out := range c.ProduceBlock(mints).Outcomes {
		if out.Err != nil {
			return nil, nil, out.Err
		}
		if out.Receipt.Err != nil {
			return nil, nil, out.Receipt.Err
		}
		id, err := contracts.DecU64(out.Receipt.Return)
		if err != nil {
			return nil, nil, err
		}
		tokens[j] = id
	}
	return nonces, tokens, nil
}

// DurableExecCompare seals the identical transfer workload three ways —
// in-memory, durable at the default group commit, durable without fsync —
// and reports the slowdown each durability level costs. dirFor must return
// a fresh directory per call.
func DurableExecCompare(dirFor func() string, clients, rounds int) ([]DurableRow, error) {
	if clients%2 != 0 {
		return nil, fmt.Errorf("bench: clients must be even, got %d", clients)
	}
	run := func(mode string) (DurableRow, error) {
		c := chain.New()
		if _, err := c.Deploy(contracts.DataNFTName, &contracts.DataNFT{}, contracts.DataNFTCodeSize); err != nil {
			return DurableRow{}, err
		}
		var d *snapshot.DurableStore
		if mode != "memory" {
			opts := snapshot.Options{Dir: dirFor(), CheckpointEvery: 64}
			if mode == "durable-nosync" {
				opts.WAL.NoSync = true
			}
			var err error
			if d, err = snapshot.Open(opts); err != nil {
				return DurableRow{}, err
			}
			defer d.Close()
			if _, err := d.Recover(c); err != nil {
				return DurableRow{}, err
			}
			if err := d.Attach(c); err != nil {
				return DurableRow{}, err
			}
		}
		addrs := execClients(clients)
		fund(c, addrs)
		nonces, tokens, err := execSetup(c, addrs)
		if err != nil {
			return DurableRow{}, err
		}
		total, elapsed, err := execWorkload(c, addrs, nonces, tokens, 0, rounds)
		if err != nil {
			return DurableRow{}, err
		}
		row := DurableRow{
			Mode:     mode,
			Clients:  clients,
			Txs:      total,
			Seconds:  elapsed.Seconds(),
			TxPerSec: float64(total) / elapsed.Seconds(),
		}
		if d != nil {
			if err := d.Err(); err != nil {
				return DurableRow{}, err
			}
			st := d.Stats()
			row.Syncs = st.WAL.Syncs
			row.Checkpoints = st.Checkpoints
		}
		return row, nil
	}

	var rows []DurableRow
	for _, mode := range []string{"memory", "durable", "durable-nosync"} {
		row, err := run(mode)
		if err != nil {
			return nil, fmt.Errorf("bench %s: %w", mode, err)
		}
		rows = append(rows, row)
	}
	base := rows[0].TxPerSec
	for i := range rows {
		rows[i].Slowdown = base / rows[i].TxPerSec
	}
	return rows, nil
}

// RecoveryRow is one point of the crash-recovery-time experiment.
type RecoveryRow struct {
	Blocks         int // blocks sealed before the crash
	TxsPerBlock    int
	SnapshotHeight uint64 // 0 = WAL-only recovery
	WALBlocks      int    // blocks replayed from the WAL tail
	Seconds        float64
	BlocksPerSec   float64 // replayed blocks ÷ recovery time
}

// RecoveryTime seals blocks transfer-blocks into a durable data dir — with
// a mid-run checkpoint when checkpoint is true — crashes the engine, and
// times a fresh DurableStore recovering the directory.
func RecoveryTime(dir string, blocks, clients int, checkpoint bool) (RecoveryRow, error) {
	addrs := execClients(clients)
	// boot re-creates the deterministic genesis a restarting node would:
	// contract deployed, clients funded, no blocks.
	boot := func() (*chain.Chain, *snapshot.DurableStore, error) {
		c := chain.New()
		if _, err := c.Deploy(contracts.DataNFTName, &contracts.DataNFT{}, contracts.DataNFTCodeSize); err != nil {
			return nil, nil, err
		}
		fund(c, addrs)
		d, err := snapshot.Open(snapshot.Options{Dir: dir, CheckpointEvery: 1 << 30})
		if err != nil {
			return nil, nil, err
		}
		return c, d, nil
	}

	c, d, err := boot()
	if err != nil {
		return RecoveryRow{}, err
	}
	if _, err := d.Recover(c); err != nil {
		return RecoveryRow{}, err
	}
	if err := d.Attach(c); err != nil {
		return RecoveryRow{}, err
	}
	nonces, tokens, err := execSetup(c, addrs)
	if err != nil {
		return RecoveryRow{}, err
	}
	// execSetup sealed the mint block; fill the rest of the target height.
	rounds := blocks - 1
	if rounds < 0 {
		rounds = 0
	}
	half := rounds / 2
	if _, _, err := execWorkload(c, addrs, nonces, tokens, 0, half); err != nil {
		return RecoveryRow{}, err
	}
	if checkpoint {
		if err := d.Checkpoint(); err != nil {
			return RecoveryRow{}, err
		}
	}
	if _, _, err := execWorkload(c, addrs, nonces, tokens, half, rounds-half); err != nil {
		return RecoveryRow{}, err
	}
	if err := d.Err(); err != nil {
		return RecoveryRow{}, err
	}
	d.Crash()

	c2, d2, err := boot()
	if err != nil {
		return RecoveryRow{}, err
	}
	defer d2.Close()
	start := time.Now()
	rep, err := d2.Recover(c2)
	if err != nil {
		return RecoveryRow{}, err
	}
	elapsed := time.Since(start)
	if rep.Head != c.Height() {
		return RecoveryRow{}, fmt.Errorf("bench: recovered head %d, sealed %d", rep.Head, c.Height())
	}
	row := RecoveryRow{
		Blocks:         blocks,
		TxsPerBlock:    clients / 2,
		SnapshotHeight: rep.SnapshotHeight,
		WALBlocks:      rep.BlocksReplayed,
		Seconds:        elapsed.Seconds(),
	}
	if rep.BlocksReplayed > 0 {
		row.BlocksPerSec = float64(rep.BlocksReplayed) / elapsed.Seconds()
	}
	return row, nil
}

// RecoverySweep runs RecoveryTime over the block counts, WAL-only and with
// a mid-run checkpoint. dirFor must return a fresh directory per call.
func RecoverySweep(dirFor func() string, blockCounts []int, clients int) ([]RecoveryRow, error) {
	var rows []RecoveryRow
	for _, checkpoint := range []bool{false, true} {
		for _, blocks := range blockCounts {
			row, err := RecoveryTime(dirFor(), blocks, clients, checkpoint)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
