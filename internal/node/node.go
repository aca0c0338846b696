// Package node is ZKDET's serving layer on top of the chain substrate: a
// nonce-ordered mempool with admission control, a block-producer goroutine
// that drains the pool and seals blocks on a size/interval trigger, and a
// subscription bus so clients wait on inclusion instead of polling. It is
// the transaction-admission half of the node daemon (cmd/zkdet-node); the
// query half lives in internal/indexer.
package node

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/obs"
)

// Config tunes the mempool and block producer.
type Config struct {
	// MaxPoolTxs caps pending+executing transactions; beyond it the pool
	// evicts the furthest-future transaction or rejects the newcomer.
	MaxPoolTxs int
	// MaxBlockTxs is the most transactions one block holds; a block is
	// produced as soon as this many are pooled.
	MaxBlockTxs int
	// BlockInterval is the minimum spacing between partial blocks: one is
	// produced from whatever is executable once that long has passed since
	// the last block, sealed here or imported, bounding inclusion latency
	// under light traffic. A SubmitAndWait transaction reaching a node that
	// has been idle for longer is sealed at once.
	BlockInterval time.Duration
	// SealVerifier is ignored: the chain's own block verifier
	// (chain.Chain.SetBlockVerifier, installed by a marketplace genesis)
	// folds a block's proofs at seal time.
	// benchmark shim: item 1 deletes
	SealVerifier chain.BlockVerifier
	// ExecWorkers was the speculative engine's width. It is ignored, and
	// retained only because benchmark/ (env.go) still assigns it.
	ExecWorkers int
}

// DefaultConfig returns the tuning used by the daemon.
func DefaultConfig() Config {
	return Config{
		MaxPoolTxs:    8192,
		MaxBlockTxs:   256,
		BlockInterval: 25 * time.Millisecond,
	}
}

func (c *Config) sanitize() {
	d := DefaultConfig()
	if c.MaxPoolTxs <= 0 {
		c.MaxPoolTxs = d.MaxPoolTxs
	}
	if c.MaxBlockTxs <= 0 {
		c.MaxBlockTxs = d.MaxBlockTxs
	}
	if c.BlockInterval <= 0 {
		c.BlockInterval = d.BlockInterval
	}
}

// Node runs the mempool + block producer over a chain and publishes sealed
// blocks on its Bus.
type Node struct {
	cfg   Config
	chain *chain.Chain
	pool  *mempool
	bus   *Bus

	kick     chan struct{}
	imported chan struct{} // an import landed: the interval restarts
	quit     chan struct{}
	wg       sync.WaitGroup
	// waiting counts SubmitAndWait callers blocked on inclusion: clients
	// that send nothing more until their transaction is sealed, so holding
	// it back gathers no fuller block (see run).
	waiting atomic.Int32

	mu      sync.Mutex
	running bool // guarded by mu

	// headMu serializes producing with ImportBlock, so the leadership check
	// and the block it licenses see the same head: no import can slip a
	// block in between and make this node seal out of turn.
	headMu     sync.Mutex
	importedAt time.Time                // guarded by headMu; when the last import landed
	leads      func(height uint64) bool // set before Start; nil leads every height

	blocksSealed      atomic.Uint64
	blocksImported    atomic.Uint64 // remotely sealed blocks replayed through ImportBlock
	txsIncluded       atomic.Uint64
	proofsPreverified atomic.Uint64 // included with the proof checked by its block's seal-time fold
	proofsEvicted     atomic.Uint64 // evicted at seal time for an invalid proof
	latency           obs.Histogram // admission → sealed block
	foldTime          obs.Histogram // a sealed block's proof check (chain.Produced.FoldTime)
}

// New creates a node over the chain. Call Start to begin producing blocks.
func New(c *chain.Chain, cfg Config) *Node {
	cfg.sanitize()
	n := &Node{
		cfg:      cfg,
		chain:    c,
		pool:     newMempool(cfg, c),
		bus:      NewBus(),
		kick:     make(chan struct{}, 1),
		imported: make(chan struct{}, 1),
		quit:     make(chan struct{}),
	}
	// The bus republishes every block the chain seals or imports — whether
	// this node's producer, an importer or another caller of the chain put
	// it there.
	c.OnSeal(func(b chain.Block, rs []*chain.Receipt) error {
		n.bus.publish(b, rs)
		return nil
	})
	return n
}

// Bus returns the node's subscription bus.
func (n *Node) Bus() *Bus { return n.bus }

// Chain returns the underlying chain.
func (n *Node) Chain() *chain.Chain { return n.chain }

// SetLeader installs the leadership predicate, before Start: the producer
// seals height h only if leads(h), on Stop too. Nil, the default, leads
// every height; a cluster member imports the heights it does not lead.
func (n *Node) SetLeader(leads func(height uint64) bool) { n.leads = leads }

// Start launches the block producer.
func (n *Node) Start() {
	n.mu.Lock()
	if n.running {
		n.mu.Unlock()
		return
	}
	n.running = true
	n.mu.Unlock()
	n.wg.Add(1)
	go n.run()
}

// Stop drains the pool into final blocks at the heights this node leads,
// stops the producer and fails what is left pooled with ErrNodeStopped.
func (n *Node) Stop() {
	n.mu.Lock()
	if !n.running {
		n.mu.Unlock()
		return
	}
	n.running = false
	n.mu.Unlock()
	close(n.quit)
	n.wg.Wait()
}

// Submit admits a transaction fire-and-forget; the result is observable via
// the bus or chain receipts.
func (n *Node) Submit(tx chain.Transaction) (chain.Hash, error) {
	ptx, err := n.pool.add(tx, false, false)
	if err != nil {
		return chain.Hash{}, err
	}
	poke(n.kick)
	return ptx.hash, nil
}

// SubmitForResult admits a transaction (assigning the next account nonce
// when autoNonce) without blocking, returning the transaction exactly as
// pooled — nonce assigned, gas default applied — and a 1-buffered channel
// that will receive its terminal result. The p2p layer uses it to gossip
// the precise pooled bytes (so remote hashes match) while awaiting
// inclusion.
func (n *Node) SubmitForResult(tx chain.Transaction, autoNonce bool) (chain.Transaction, <-chan TxResult, error) {
	ptx, err := n.pool.add(tx, autoNonce, true)
	if err != nil {
		return chain.Transaction{}, nil, err
	}
	poke(n.kick)
	return ptx.tx, ptx.done, nil
}

// SubmitAndWait admits a transaction (assigning the next account nonce when
// autoNonce) and blocks until it is sealed into a block, evicted, or the
// context ends.
func (n *Node) SubmitAndWait(ctx context.Context, tx chain.Transaction, autoNonce bool) (TxResult, error) {
	ptx, err := n.pool.add(tx, autoNonce, true)
	if err != nil {
		return TxResult{}, err
	}
	n.waiting.Add(1)
	defer n.waiting.Add(-1)
	poke(n.kick)
	select {
	case res := <-ptx.done:
		return res, res.Err
	case <-ctx.Done():
		// The transaction stays pooled; its result is dropped.
		return TxResult{TxHash: ptx.hash, Err: ErrWaitCanceled}, ErrWaitCanceled
	}
}

// NextNonce returns the nonce the pool would assign the sender next.
func (n *Node) NextNonce(a chain.Address) uint64 { return n.pool.NextNonce(a) }

// PendingSample returns up to max pooled transactions for gossip
// rebroadcast — the executable run of each sender's queue.
func (n *Node) PendingSample(max int) []chain.Transaction {
	return n.pool.pendingSample(max)
}

// poke signals a 1-buffered wake-up channel without blocking.
func poke(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// produce is the block producer's one step: pop up to a block's worth of
// executable transactions, hand them to the chain's atomic apply-and-seal
// (chain.ProduceBlock: the proofs are folded once, over the block, and
// execution happens at seal), release the pool reservations and deliver
// every result: a block that a seal hook did not keep
// (chain.Produced.SealErr) acknowledges none of its transactions. It pops
// nothing if this node does not lead the next height, or if spaced and the
// last import is younger than BlockInterval (it landed after the loop
// decided to seal). It returns how many it popped.
func (n *Node) produce(spaced bool) int {
	n.headMu.Lock()
	defer n.headMu.Unlock()
	if n.leads != nil && !n.leads(n.chain.Head().Number+1) {
		return 0
	}
	if spaced && time.Since(n.importedAt) < n.cfg.BlockInterval {
		return 0
	}
	batch := n.pool.pop(n.cfg.MaxBlockTxs)
	if len(batch) == 0 {
		return 0
	}
	txs := make([]chain.Transaction, len(batch))
	for i, ptx := range batch {
		txs[i] = ptx.tx
	}
	res := n.chain.ProduceBlock(txs)
	n.pool.markDone(batch)
	now := time.Now()
	if res.Block.Number != 0 {
		n.blocksSealed.Add(1)
	}
	n.txsIncluded.Add(uint64(len(res.Block.TxHashes)))
	n.proofsPreverified.Add(uint64(res.ProofsVerified))
	n.proofsEvicted.Add(uint64(res.ProofsEvicted))
	if res.FoldTime > 0 {
		n.foldTime.Observe(res.FoldTime)
	}
	for i, ptx := range batch {
		err := res.Outcomes[i].Err
		if err == nil && res.SealErr != nil {
			// Sealed, but a seal hook (the durable store) did not keep
			// the block: acknowledging it could lose it in a crash.
			err = fmt.Errorf("node: block %d was not kept: %w", res.Block.Number, res.SealErr)
		}
		if err != nil {
			ptx.finish(TxResult{Err: err})
			continue
		}
		n.latency.Observe(now.Sub(ptx.added))
		ptx.finish(TxResult{Receipt: res.Outcomes[i].Receipt, BlockNumber: res.Block.Number})
	}
	return len(batch)
}

// run is the block producer: at a height this node leads, a block is
// produced whenever a full one is pooled, and from whatever is executable
// once BlockInterval has passed since the last block, sealed or imported —
// at the tick when transactions were waiting for it, on arrival when the
// node was idle and a client is blocked on the result.
func (n *Node) run() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.BlockInterval)
	defer ticker.Stop()
	// idle records that the last tick found nothing to seal: the interval
	// since the last block has already passed, so an arrival owes it no
	// wait. Only a SubmitAndWait arrival collects on that: a fire-and-forget
	// submitter is usually at the head of a burst, and sealing its first
	// transaction alone would only push the burst's tail behind a tick.
	idle := false
	// drain produces blocks for as long as full ones keep coming; when the
	// interval expired the first takes whatever is executable. The interval
	// runs from the last block, so under sustained load it never cuts a
	// block short.
	drain := func(partial bool) {
		for partial || n.pool.Len() >= n.cfg.MaxBlockTxs {
			popped := n.produce(partial)
			ticker.Reset(n.cfg.BlockInterval)
			idle = popped == 0
			if popped < n.cfg.MaxBlockTxs {
				return
			}
			partial = false
		}
	}
	for {
		select {
		case <-n.kick:
			drain(idle && n.waiting.Load() > 0)
		case <-n.imported:
			ticker.Reset(n.cfg.BlockInterval)
			idle = false
		case <-ticker.C:
			drain(true)
		case <-n.quit:
			for n.produce(false) > 0 {
			}
			n.pool.drainAll(ErrNodeStopped)
			return
		}
	}
}

// ImportBlock applies a remotely sealed block to the local chain (the same
// routine that produced it, see chain.ImportBlock) and reconciles the
// mempool: transactions included by the remote sealer are
// purged from the pool (delivering their receipts to any local waiters),
// and transactions made unexecutable by the imported nonces are evicted.
// The chain's OnSeal hooks (bus, indexer) run exactly as for a locally
// sealed block, so every node indexes imported blocks identically. Like a
// local seal, an import restarts the producer's interval.
func (n *Node) ImportBlock(b chain.Block, txs []chain.Transaction) ([]*chain.Receipt, error) {
	n.headMu.Lock()
	defer n.headMu.Unlock()
	receipts, err := n.chain.ImportBlock(b, txs)
	if err != nil {
		return nil, err
	}
	n.importedAt = time.Now()
	n.blocksImported.Add(1)
	n.pool.removeIncluded(txs, receipts, b.Number)
	poke(n.imported)
	return receipts, nil
}

// Metrics reports the node's counters under constant node.* names. The
// inclusion latency percentiles (admission → sealed block) and the fold
// percentiles (the proof check of each block this node sealed), over the
// node's lifetime, are histogram bucket upper edges, at most 1/8 above the
// exact reading.
func (n *Node) Metrics() map[string]float64 {
	p50, p99 := n.latency.Quantile(0.5), n.latency.Quantile(0.99)
	f50, f99 := n.foldTime.Quantile(0.5), n.foldTime.Quantile(0.99)
	p := n.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	return map[string]float64{
		"node.poolSize": float64(p.size), "node.admitted": float64(p.admitted),
		"node.rejected": float64(p.rejected), "node.evicted": float64(p.evictions),
		"node.blocksSealed": float64(n.blocksSealed.Load()), "node.blocksImported": float64(n.blocksImported.Load()),
		"node.txsIncluded": float64(n.txsIncluded.Load()), "node.proofsPreverified": float64(n.proofsPreverified.Load()),
		"node.proofsEvicted": float64(n.proofsEvicted.Load()), "node.latencyP50Ms": float64(p50) / 1e6,
		"node.latencyP99Ms": float64(p99) / 1e6, "node.foldP50Ms": float64(f50) / 1e6,
		"node.foldP99Ms": float64(f99) / 1e6,
	}
}

// Stats is the part of Metrics that benchmark/layers.go reads.
// benchmark shim: item 1 deletes
type Stats struct {
	Rejected, Evicted, BlocksSealed, TxsIncluded, ProofsPreverified, ProofsEvicted uint64

	LatencyP50, LatencyP99 time.Duration
}

// Stats reads the shim's fields out of Metrics.
// benchmark shim: item 1 deletes
func (n *Node) Stats() Stats {
	m := n.Metrics()
	return Stats{
		Rejected: uint64(m["node.rejected"]), Evicted: uint64(m["node.evicted"]),
		BlocksSealed: uint64(m["node.blocksSealed"]), TxsIncluded: uint64(m["node.txsIncluded"]),
		ProofsPreverified: uint64(m["node.proofsPreverified"]), ProofsEvicted: uint64(m["node.proofsEvicted"]),
		LatencyP50: n.latency.Quantile(0.5), LatencyP99: n.latency.Quantile(0.99),
	}
}
