package p2p

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/node"
	"github.com/zkdet/zkdet/internal/storage"
)

// ErrStopped reports an operation cut short by Node.Stop.
var ErrStopped = errors.New("p2p: node stopped")

// TxValidator screens proof-carrying transactions at the network boundary.
// contracts.BlockProofChecker.GossipCheck implements it structurally — the
// dependency points from the application layer down, never the reverse.
// Screening has no effect on what a transaction later pays: that is decided
// by the block it is sealed in (chain.Block.Fold), on every node alike.
type TxValidator interface {
	GossipCheck(txs []*chain.Transaction) (verified int, errs []error)
}

// Peer-scoring deltas. A peer whose score falls to or below
// Config.DemoteBelow is demoted: its pushes are ignored, it receives no
// gossip, and sync never selects it.
const (
	scoreInvalidTx    = -25 // pushed a transaction with an invalid proof
	scoreInvalidBlock = -50 // served a block that fails validation or replay
	scoreTimeout      = -2  // request went unanswered
	scoreGood         = 1   // served a block we imported
)

// Protocol bounds no deployment tunes.
const (
	requestRetries = 4       // attempts after the first before a request fails
	headersBatch   = 64      // headers per sync request
	seenCap        = 1 << 16 // entries in each of the tx/block seen-caches
)

// Config tunes one cluster member.
type Config struct {
	// ID is this node's transport identity; it must appear in Members.
	ID NodeID
	// Members is the static cluster membership. All nodes must agree on it
	// (it determines leader rotation); order is irrelevant, the node sorts.
	Members []NodeID
	// Fanout bounds how many peers receive each gossip push or block
	// announcement. Default 3.
	Fanout int
	// SealInterval is how often the node checks whether it is the due
	// leader with executable transactions. Default 5ms.
	SealInterval time.Duration
	// StatusInterval paces head advertisements to all peers — the
	// catch-all that lets stragglers and healed partitions discover they
	// are behind. Default 50ms.
	StatusInterval time.Duration
	// RebroadcastInterval paces re-gossip of pooled transactions, covering
	// pushes lost to drops or partitions. Default 100ms.
	RebroadcastInterval time.Duration
	// RequestTimeout bounds one request attempt; requestRetries more
	// attempts follow with RetryBackoff doubling between them.
	// Defaults 150ms / 25ms.
	RequestTimeout time.Duration
	RetryBackoff   time.Duration
	// DemoteBelow is the score at or below which a peer is demoted.
	// Default -100.
	DemoteBelow int
	// Validator, when set, screens proof-carrying transactions at gossip
	// ingress and local submission (blocks are checked by the chain itself
	// when they are imported).
	Validator TxValidator
	// Store, when set, is this node's local blob store: the node serves
	// MsgGetBlob from it and accepts MsgBlobPush replicas into it. Any
	// storage.LocalStore works — a plain *storage.Store, or the durable
	// engine's write-ahead-logged wrapper.
	Store storage.LocalStore
	// Replicate is how many peers receive a copy of each locally stored
	// blob (see NetStore). Default 2.
	Replicate int
}

func (c *Config) sanitize() error {
	found := false
	for _, m := range c.Members {
		if m == c.ID {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("p2p: node %s not in members", c.ID)
	}
	if c.Fanout <= 0 {
		c.Fanout = 3
	}
	if c.SealInterval <= 0 {
		c.SealInterval = 5 * time.Millisecond
	}
	if c.StatusInterval <= 0 {
		c.StatusInterval = 50 * time.Millisecond
	}
	if c.RebroadcastInterval <= 0 {
		c.RebroadcastInterval = 100 * time.Millisecond
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 150 * time.Millisecond
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.DemoteBelow == 0 {
		c.DemoteBelow = -100
	}
	if c.Replicate <= 0 {
		c.Replicate = 2
	}
	return nil
}

// peerState is what a node tracks about one peer.
type peerState struct {
	score  int        // gossip/serve reputation
	height uint64     // last advertised chain height
	head   chain.Hash // last advertised head hash
}

// NetStats is a snapshot of a node's networking counters.
type NetStats struct {
	TxsAccepted  uint64 // fresh gossip transactions admitted
	TxsForwarded uint64 // transactions re-pushed to peers
	TxsInvalid   uint64 // gossip transactions dropped by proof screening
	BlocksSealed uint64 // blocks sealed as leader
	SyncImports  uint64 // blocks imported through sync
	Timeouts     uint64 // request attempts that timed out
	Demotions    uint64 // peers crossing the demotion threshold
}

// Node is one cluster member: it ties a node.Node (mempool + chain) to a
// Transport and runs the gossip, sync, and leader-rotation protocols.
//
// Block production uses strict round-robin rotation: the leader for height
// h is members[h mod n], and a node seals only when it is the leader for
// its own head+1. Because every sealed block's height named exactly one
// possible sealer, two honest nodes can never seal competing blocks at the
// same height — the chain cannot fork, and sync reduces to prefix
// catch-up. The cost is liveness, not safety: while the due leader is
// unreachable the chain stalls, and production resumes when the partition
// heals (crash-fault tolerance; Byzantine sealers are detected by replay
// and demoted, but can stall their own slots).
//
// Concurrency layout: the transport dispatcher invokes handle serially;
// handle never blocks on a response (it only records state, admits
// transactions, serves data, and routes responses to waiting channels).
// Anything that awaits a response — sync, NetStore fetches — runs on its
// own goroutine. chainMu serializes this node's seal and import paths so
// the leader check and the seal it licenses see the same head: no import
// can slip a block in between and make this node seal out of turn.
type Node struct {
	cfg     Config
	inner   *node.Node
	net     Transport
	members []NodeID // sorted; immutable
	others  []NodeID // members minus self; immutable

	chainMu sync.Mutex // serializes SealNow vs ImportBlock on the local chain

	mu         sync.Mutex
	peers      map[NodeID]*peerState   // guarded by mu
	seenTxs    *seenCache              // guarded by mu
	seenBlocks *seenCache              // guarded by mu
	reqSeq     uint64                  // guarded by mu
	reqs       map[uint64]chan Message // guarded by mu
	rrOffset   int                     // guarded by mu; rotates gossip target selection
	started    bool                    // guarded by mu
	stats      NetStats                // guarded by mu

	syncWake chan struct{}
	quit     chan struct{}
	wg       sync.WaitGroup
}

// NewNode wraps a node.Node as a cluster member. The inner node must be
// externally driven — never call its Start; the p2p layer seals via SealNow
// when leader rotation says so.
func NewNode(cfg Config, inner *node.Node, t Transport) (*Node, error) {
	if err := cfg.sanitize(); err != nil {
		return nil, err
	}
	members := append([]NodeID(nil), cfg.Members...)
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	n := &Node{
		cfg:        cfg,
		inner:      inner,
		net:        t,
		members:    members,
		peers:      make(map[NodeID]*peerState),
		seenTxs:    newSeenCache(seenCap),
		seenBlocks: newSeenCache(seenCap),
		reqs:       make(map[uint64]chan Message),
		syncWake:   make(chan struct{}, 1),
		quit:       make(chan struct{}),
	}
	for _, m := range members {
		if m != cfg.ID {
			n.others = append(n.others, m)
			n.peers[m] = &peerState{}
		}
	}
	return n, nil
}

// Inner returns the wrapped node.
func (n *Node) Inner() *node.Node { return n.inner }

// ID returns this node's transport identity.
func (n *Node) ID() NodeID { return n.cfg.ID }

// Start attaches to the transport and launches the protocol loops.
func (n *Node) Start() error {
	n.mu.Lock()
	if n.started {
		n.mu.Unlock()
		return nil
	}
	n.started = true
	n.mu.Unlock()
	if err := n.net.Attach(n.cfg.ID, n.handle); err != nil {
		return err
	}
	n.wg.Add(2)
	go n.tickLoop()
	go n.syncLoop()
	return nil
}

// Stop halts the loops and detaches from the transport.
func (n *Node) Stop() {
	n.mu.Lock()
	if !n.started {
		n.mu.Unlock()
		return
	}
	n.started = false
	n.mu.Unlock()
	close(n.quit)
	n.wg.Wait()
	n.net.Detach(n.cfg.ID)
}

// Head returns the local chain head.
func (n *Node) Head() chain.Block { return n.inner.Chain().Head() }

// Stats snapshots the networking counters.
func (n *Node) Stats() NetStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// SubmitAndWait admits a transaction locally (screening its proof when a
// validator is configured, assigning the next account nonce when
// autoNonce), gossips the exact pooled bytes to the cluster, and blocks
// until the transaction lands in a block — sealed here or imported from
// the leader that included it.
func (n *Node) SubmitAndWait(ctx context.Context, tx chain.Transaction, autoNonce bool) (node.TxResult, error) {
	if v := n.cfg.Validator; v != nil {
		if _, errs := v.GossipCheck([]*chain.Transaction{&tx}); errs[0] != nil {
			return node.TxResult{}, errs[0]
		}
	}
	pooled, done, err := n.inner.SubmitForResult(tx, autoNonce)
	if err != nil {
		return node.TxResult{}, err
	}
	n.markTxSeen(pooled.Hash())
	n.pushTxs([]chain.Transaction{pooled}, "")
	select {
	case res := <-done:
		return res, res.Err
	case <-ctx.Done():
		return node.TxResult{Err: node.ErrWaitCanceled}, node.ErrWaitCanceled
	}
}

// Submit admits and gossips a transaction fire-and-forget.
func (n *Node) Submit(tx chain.Transaction, autoNonce bool) (chain.Hash, error) {
	if v := n.cfg.Validator; v != nil {
		if _, errs := v.GossipCheck([]*chain.Transaction{&tx}); errs[0] != nil {
			return chain.Hash{}, errs[0]
		}
	}
	pooled, _, err := n.inner.SubmitForResult(tx, autoNonce)
	if err != nil {
		return chain.Hash{}, err
	}
	h := pooled.Hash()
	n.markTxSeen(h)
	n.pushTxs([]chain.Transaction{pooled}, "")
	return h, nil
}

// leaderFor returns the member allowed to seal the given height.
func (n *Node) leaderFor(height uint64) NodeID {
	return n.members[int(height%uint64(len(n.members)))]
}

// tickLoop drives leader sealing, status broadcast, and tx rebroadcast.
func (n *Node) tickLoop() {
	defer n.wg.Done()
	seal := time.NewTicker(n.cfg.SealInterval)
	status := time.NewTicker(n.cfg.StatusInterval)
	rebroadcast := time.NewTicker(n.cfg.RebroadcastInterval)
	defer seal.Stop()
	defer status.Stop()
	defer rebroadcast.Stop()
	for {
		select {
		case <-n.quit:
			return
		case <-seal.C:
			n.maybeSeal()
		case <-status.C:
			n.broadcastStatus()
		case <-rebroadcast.C:
			if txs := n.inner.PendingSample(16); len(txs) > 0 {
				n.pushTxs(txs, "")
			}
		}
	}
}

// maybeSeal seals one block if this node is the due leader and has
// executable transactions, then announces it.
func (n *Node) maybeSeal() {
	n.chainMu.Lock()
	head := n.inner.Chain().Head()
	if n.leaderFor(head.Number+1) != n.cfg.ID {
		n.chainMu.Unlock()
		return
	}
	blk, ok := n.inner.SealNow()
	n.chainMu.Unlock()
	if !ok {
		return
	}
	n.markBlockSeen(blk.Hash())
	n.mu.Lock()
	n.stats.BlocksSealed++
	n.mu.Unlock()
	n.announce(blk, "")
	n.broadcastStatus()
}

// announce pushes a freshly extended head header to a fanout of peers.
func (n *Node) announce(b chain.Block, exclude NodeID) {
	msg := Message{
		Kind:    MsgBlockAnnounce,
		Height:  b.Number,
		Head:    b.Hash(),
		Headers: []chain.Block{b},
	}
	for _, id := range n.gossipTargets(exclude) {
		n.net.Send(n.cfg.ID, id, msg) //nolint:errcheck // unreliable by contract
	}
}

// broadcastStatus advertises the local head to every peer.
func (n *Node) broadcastStatus() {
	head := n.inner.Chain().Head()
	msg := Message{Kind: MsgStatus, Height: head.Number, Head: head.Hash()}
	for _, id := range n.others {
		n.net.Send(n.cfg.ID, id, msg) //nolint:errcheck // unreliable by contract
	}
}

// pushTxs gossips transactions to a fanout of peers, excluding the one
// they came from.
func (n *Node) pushTxs(txs []chain.Transaction, exclude NodeID) {
	targets := n.gossipTargets(exclude)
	if len(targets) == 0 {
		return
	}
	msg := Message{Kind: MsgTxPush, Txs: txs}
	for _, id := range targets {
		n.net.Send(n.cfg.ID, id, msg) //nolint:errcheck // unreliable by contract
	}
	n.mu.Lock()
	n.stats.TxsForwarded += uint64(len(txs) * len(targets))
	n.mu.Unlock()
}

// gossipTargets picks up to Fanout non-demoted peers, rotating the start
// point so successive pushes spread across the membership.
func (n *Node) gossipTargets(exclude NodeID) []NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	cands := make([]NodeID, 0, len(n.others))
	for _, id := range n.others {
		if id == exclude {
			continue
		}
		if ps := n.peers[id]; ps != nil && ps.score <= n.cfg.DemoteBelow {
			continue
		}
		cands = append(cands, id)
	}
	if len(cands) <= n.cfg.Fanout {
		return cands
	}
	start := n.rrOffset % len(cands)
	n.rrOffset++
	out := make([]NodeID, 0, n.cfg.Fanout)
	for i := 0; i < n.cfg.Fanout; i++ {
		out = append(out, cands[(start+i)%len(cands)])
	}
	return out
}

// demote lowers a peer's score, counting a demotion when it crosses the
// threshold.
func (n *Node) demote(id NodeID, delta int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ps, ok := n.peers[id]
	if !ok {
		return
	}
	was := ps.score
	ps.score += delta
	if was > n.cfg.DemoteBelow && ps.score <= n.cfg.DemoteBelow {
		n.stats.Demotions++
	}
}

// credit raises a peer's score for useful service, capped at zero so a
// long good run cannot bank immunity against later misbehaviour.
func (n *Node) credit(id NodeID, delta int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ps, ok := n.peers[id]; ok && ps.score < 0 {
		ps.score += delta
		if ps.score > 0 {
			ps.score = 0
		}
	}
}

func (n *Node) isDemoted(id NodeID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	ps, ok := n.peers[id]
	return ok && ps.score <= n.cfg.DemoteBelow
}

// markTxSeen records a tx hash; true means it was fresh.
func (n *Node) markTxSeen(h chain.Hash) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.seenTxs.add(h)
}

// markBlockSeen records a block hash; true means it was fresh.
func (n *Node) markBlockSeen(h chain.Hash) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.seenBlocks.add(h)
}

// wakeSync nudges the sync loop without blocking.
func (n *Node) wakeSync() {
	select {
	case n.syncWake <- struct{}{}:
	default:
	}
}

// seenCache is a fixed-capacity set with FIFO eviction — enough to
// suppress gossip echo without unbounded growth.
type seenCache struct {
	cap  int
	set  map[chain.Hash]struct{}
	ring []chain.Hash
	pos  int
}

func newSeenCache(capacity int) *seenCache {
	return &seenCache{cap: capacity, set: make(map[chain.Hash]struct{}, capacity)}
}

// add inserts h, evicting the oldest entry at capacity; false means h was
// already present.
func (s *seenCache) add(h chain.Hash) bool {
	if _, ok := s.set[h]; ok {
		return false
	}
	if len(s.ring) < s.cap {
		s.ring = append(s.ring, h)
	} else {
		delete(s.set, s.ring[s.pos])
		s.ring[s.pos] = h
		s.pos = (s.pos + 1) % s.cap
	}
	s.set[h] = struct{}{}
	return true
}
