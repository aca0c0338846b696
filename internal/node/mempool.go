package node

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/zkdet/zkdet/internal/chain"
)

// Mempool admission errors.
var (
	ErrPoolFull     = errors.New("node: mempool full")
	ErrNonceTooLow  = errors.New("node: nonce below account nonce")
	ErrKnownTx      = errors.New("node: nonce already pending")
	ErrNonceGap     = errors.New("node: nonce gap exceeds limit")
	ErrUnderfunded  = errors.New("node: sender cannot fund pending value")
	ErrGasTooHigh   = errors.New("node: gas limit above node maximum")
	ErrEvicted      = errors.New("node: transaction evicted from mempool")
	ErrNodeStopped  = errors.New("node: node stopped")
	ErrWaitCanceled = errors.New("node: wait canceled")
	// ErrReplaced reports a pooled transaction whose nonce was consumed by
	// a different transaction in an imported block — it can never execute.
	ErrReplaced = errors.New("node: nonce consumed by an imported block")
)

// maxNonceGap bounds how far ahead of the next executable nonce an explicit
// transaction nonce may run.
const maxNonceGap = 64

// TxResult is the terminal outcome of a pooled transaction: either a
// receipt with the block that included it, or the error that ended it
// (eviction, execution-time rejection, node shutdown).
type TxResult struct {
	TxHash      chain.Hash
	Receipt     *chain.Receipt
	BlockNumber uint64
	Err         error
}

// poolTx is a queued transaction plus its delivery channel.
type poolTx struct {
	tx    chain.Transaction
	hash  chain.Hash
	added time.Time
	// done receives the terminal TxResult (capacity 1; nil when the
	// submitter did not ask to wait).
	done chan TxResult
}

func (p *poolTx) finish(res TxResult) {
	res.TxHash = p.hash
	if p.done != nil {
		p.done <- res
	}
}

// senderQueue holds one account's pooled transactions keyed by nonce.
// pending are admitted but not yet picked up by a producer; inflight are
// being executed (their nonces stay reserved until the chain advances).
type senderQueue struct {
	pending  map[uint64]*poolTx
	inflight map[uint64]*poolTx
	// reservedValue is the total native value of pending+inflight
	// transactions, counted against the sender's balance at admission.
	reservedValue uint64
}

func (q *senderQueue) empty() bool { return len(q.pending) == 0 && len(q.inflight) == 0 }

// nextFree returns the lowest nonce ≥ chainNonce not already reserved.
func (q *senderQueue) nextFree(chainNonce uint64) uint64 {
	n := chainNonce
	for {
		if _, ok := q.pending[n]; ok {
			n++
			continue
		}
		if _, ok := q.inflight[n]; ok {
			n++
			continue
		}
		return n
	}
}

// mempool is the nonce-ordered transaction pool. All admission decisions
// happen under one lock; the lock order is pool → chain (the chain is never
// holding its lock when it calls into the pool).
type mempool struct {
	mu      sync.Mutex
	cfg     Config                         // immutable after construction
	chain   *chain.Chain                   // immutable after construction
	senders map[chain.Address]*senderQueue // guarded by mu
	size    int                            // guarded by mu; pending + inflight

	admitted  uint64 // guarded by mu
	rejected  uint64 // guarded by mu
	evictions uint64 // guarded by mu
}

func newMempool(cfg Config, c *chain.Chain) *mempool {
	return &mempool{cfg: cfg, chain: c, senders: make(map[chain.Address]*senderQueue)}
}

// queue returns (creating if needed) the sender's queue; caller holds p.mu.
func (p *mempool) queue(a chain.Address) *senderQueue {
	q, ok := p.senders[a]
	if !ok {
		q = &senderQueue{pending: make(map[uint64]*poolTx), inflight: make(map[uint64]*poolTx)}
		p.senders[a] = q
	}
	return q
}

// add admits a transaction. With autoNonce the pool assigns the next free
// nonce for the sender atomically (the gateway's path); otherwise the
// caller-supplied nonce is validated against the account and the queue.
func (p *mempool) add(tx chain.Transaction, autoNonce bool, wait bool) (*poolTx, error) {
	p.mu.Lock()
	defer p.mu.Unlock()

	// Normalize before hashing so the pool's tx hash matches the one the
	// chain assigns at execution (which applies the same default).
	if tx.GasLimit == 0 {
		tx.GasLimit = chain.DefaultGasLimit
	}
	if tx.GasLimit > chain.DefaultGasLimit {
		p.rejected++
		return nil, fmt.Errorf("%w: %d > %d", ErrGasTooHigh, tx.GasLimit, chain.DefaultGasLimit)
	}
	q := p.queue(tx.From)
	chainNonce := p.chain.NonceOf(tx.From)
	next := q.nextFree(chainNonce)
	if autoNonce {
		tx.Nonce = next
	} else {
		if tx.Nonce < chainNonce {
			p.rejected++
			return nil, fmt.Errorf("%w: got %d, account at %d", ErrNonceTooLow, tx.Nonce, chainNonce)
		}
		if _, ok := q.pending[tx.Nonce]; ok {
			p.rejected++
			return nil, fmt.Errorf("%w: nonce %d", ErrKnownTx, tx.Nonce)
		}
		if _, ok := q.inflight[tx.Nonce]; ok {
			p.rejected++
			return nil, fmt.Errorf("%w: nonce %d executing", ErrKnownTx, tx.Nonce)
		}
		if tx.Nonce > next+maxNonceGap {
			p.rejected++
			return nil, fmt.Errorf("%w: nonce %d, next executable %d, gap limit %d",
				ErrNonceGap, tx.Nonce, next, maxNonceGap)
		}
	}
	if tx.Value > 0 {
		if bal := p.chain.BalanceOf(tx.From); q.reservedValue+tx.Value > bal {
			p.rejected++
			return nil, fmt.Errorf("%w: balance %d, pending value %d + %d",
				ErrUnderfunded, bal, q.reservedValue, tx.Value)
		}
	}
	if p.size >= p.cfg.MaxPoolTxs {
		if !p.evictForLocked(tx.From, tx.Nonce) {
			p.rejected++
			return nil, fmt.Errorf("%w: %d transactions", ErrPoolFull, p.size)
		}
	}

	ptx := &poolTx{tx: tx, hash: tx.Hash(), added: time.Now()}
	if wait {
		ptx.done = make(chan TxResult, 1)
	}
	q.pending[tx.Nonce] = ptx
	q.reservedValue += tx.Value
	p.size++
	p.admitted++
	return ptx, nil
}

// evictForLocked frees one slot for an incoming transaction by dropping the
// pending transaction whose nonce is furthest ahead of its account — the
// one least likely to execute soon. The incoming transaction must be
// strictly closer to executable than the victim, otherwise it is the least
// useful one and admission fails.
func (p *mempool) evictForLocked(from chain.Address, nonce uint64) bool {
	incomingDist := nonce - p.queue(from).nextFree(p.chain.NonceOf(from))
	var victim *poolTx
	var victimQ *senderQueue
	var victimDist uint64
	for addr, q := range p.senders {
		if len(q.pending) == 0 {
			continue
		}
		base := p.chain.NonceOf(addr)
		for n, ptx := range q.pending {
			d := n - base
			if victim == nil || d > victimDist {
				victim, victimQ, victimDist = ptx, q, d
			}
		}
	}
	if victim == nil || victimDist <= incomingDist {
		return false
	}
	delete(victimQ.pending, victim.tx.Nonce)
	victimQ.reservedValue -= victim.tx.Value
	p.size--
	p.evictions++
	victim.finish(TxResult{Err: ErrEvicted})
	return true
}

// sortedSendersLocked returns the pool's sender addresses in byte order, so
// batch composition and gossip samples are deterministic functions of pool
// content rather than of Go's randomized map iteration; caller holds p.mu.
func (p *mempool) sortedSendersLocked() []chain.Address {
	addrs := make([]chain.Address, 0, len(p.senders))
	for addr := range p.senders {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool {
		return string(addrs[i][:]) < string(addrs[j][:])
	})
	return addrs
}

// pop reserves up to max executable transactions: for each sender in address
// order, the contiguous nonce run starting at the account's current nonce.
// Reserved transactions are marked inflight; the caller must markDone them
// after execution. Safe for multiple concurrent producers.
func (p *mempool) pop(max int) []*poolTx {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []*poolTx
	for _, addr := range p.sortedSendersLocked() {
		q := p.senders[addr]
		if len(q.pending) == 0 {
			continue
		}
		n := p.chain.NonceOf(addr)
		// Skip senders mid-execution: their chain nonce is stale until the
		// inflight run completes.
		if len(q.inflight) > 0 {
			continue
		}
		for {
			ptx, ok := q.pending[n]
			if !ok || len(out) >= max {
				break
			}
			delete(q.pending, n)
			q.inflight[n] = ptx
			out = append(out, ptx)
			n++
		}
		if len(out) >= max {
			break
		}
	}
	return out
}

// markDone releases executed transactions' reservations.
func (p *mempool) markDone(txs []*poolTx) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ptx := range txs {
		q := p.queue(ptx.tx.From)
		if _, ok := q.inflight[ptx.tx.Nonce]; !ok {
			continue
		}
		delete(q.inflight, ptx.tx.Nonce)
		q.reservedValue -= ptx.tx.Value
		p.size--
		if q.empty() {
			delete(p.senders, ptx.tx.From)
		}
	}
}

// removeIncluded reconciles the pool with an imported block: a pooled
// transaction included by the remote sealer is removed and its waiter gets
// the receipt, and any pooled transaction left behind the advanced account
// nonce — its slot consumed by someone else's transaction — is evicted with
// ErrReplaced. Without this, gossip-delivered blocks would leave the pool
// full of transactions that can never execute (the pool only purged what
// the local producer sealed).
func (p *mempool) removeIncluded(txs []chain.Transaction, receipts []*chain.Receipt, blockNumber uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	touched := make(map[chain.Address]bool, len(txs))
	for i := range txs {
		tx := &txs[i]
		touched[tx.From] = true
		q, ok := p.senders[tx.From]
		if !ok {
			continue
		}
		var r *chain.Receipt
		if i < len(receipts) {
			r = receipts[i]
		}
		if ptx, ok := q.pending[tx.Nonce]; ok && ptx.hash == tx.Hash() {
			delete(q.pending, tx.Nonce)
			q.reservedValue -= ptx.tx.Value
			p.size--
			ptx.finish(TxResult{Receipt: r, BlockNumber: blockNumber})
		}
		if ptx, ok := q.inflight[tx.Nonce]; ok && ptx.hash == tx.Hash() {
			delete(q.inflight, tx.Nonce)
			q.reservedValue -= ptx.tx.Value
			p.size--
			ptx.finish(TxResult{Receipt: r, BlockNumber: blockNumber})
		}
	}
	// Evict transactions stranded behind the imported nonces.
	for addr := range touched {
		q, ok := p.senders[addr]
		if !ok {
			continue
		}
		chainNonce := p.chain.NonceOf(addr)
		for nonce, ptx := range q.pending {
			if nonce < chainNonce {
				delete(q.pending, nonce)
				q.reservedValue -= ptx.tx.Value
				p.size--
				p.evictions++
				ptx.finish(TxResult{Err: ErrReplaced})
			}
		}
		if q.empty() {
			delete(p.senders, addr)
		}
	}
}

// pendingSample returns up to max pending transactions, the contiguous
// executable run of each sender first, senders in address order — the set
// worth re-gossiping to peers after a partition heals, identical for every
// caller observing the same pool. Inflight transactions are excluded (a
// producer already has them).
func (p *mempool) pendingSample(max int) []chain.Transaction {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []chain.Transaction
	for _, addr := range p.sortedSendersLocked() {
		q := p.senders[addr]
		if len(out) >= max {
			break
		}
		n := p.chain.NonceOf(addr)
		for len(out) < max {
			ptx, ok := q.pending[n]
			if !ok {
				break
			}
			out = append(out, ptx.tx)
			n++
		}
	}
	return out
}

// drainAll empties the pool, delivering err to every waiter (shutdown).
func (p *mempool) drainAll(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for addr, q := range p.senders {
		for n, ptx := range q.pending {
			delete(q.pending, n)
			p.size--
			ptx.finish(TxResult{Err: err})
		}
		if q.empty() {
			delete(p.senders, addr)
		}
	}
}

// Len reports pending + inflight transactions.
func (p *mempool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.size
}

// NextNonce returns the next unreserved nonce the pool would assign to the
// sender.
func (p *mempool) NextNonce(a chain.Address) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	q, ok := p.senders[a]
	chainNonce := p.chain.NonceOf(a)
	if !ok {
		return chainNonce
	}
	return q.nextFree(chainNonce)
}
