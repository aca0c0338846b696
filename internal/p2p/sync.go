package p2p

import (
	"errors"
	"fmt"
	"time"

	"github.com/zkdet/zkdet/internal/chain"
)

// request sends a request and waits for its response, retrying with
// exponential backoff. Each timed-out attempt demotes the target slightly;
// a response with OK=false is a definitive refusal (the peer does not have
// the data) and is returned without retrying. The successful response's
// piggybacked head refreshes peer tracking.
func (n *Node) request(to NodeID, msg Message) (Message, error) {
	backoff := retryBackoff
	for attempt := 0; attempt <= requestRetries; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(backoff):
				backoff *= 2
			case <-n.quit:
				return Message{}, ErrStopped
			}
		}
		n.mu.Lock()
		n.reqSeq++
		id := n.reqSeq
		ch := make(chan Message, 1)
		n.reqs[id] = ch
		n.mu.Unlock()
		msg.ReqID = id

		if err := n.net.Send(n.cfg.ID, to, msg); err != nil {
			n.dropReq(id)
			return Message{}, err
		}
		timer := time.NewTimer(requestTimeout)
		select {
		case resp := <-ch:
			timer.Stop()
			n.recordPeerHead(to, resp.Height, resp.Head)
			return resp, nil
		case <-timer.C:
			n.dropReq(id)
			n.demote(to, scoreTimeout)
			n.timeouts.Add(1)
		case <-n.quit:
			timer.Stop()
			n.dropReq(id)
			return Message{}, ErrStopped
		}
	}
	return Message{}, fmt.Errorf("p2p: %s: no response from %s after %d attempts",
		msg.Kind, to, requestRetries+1)
}

func (n *Node) dropReq(id uint64) {
	n.mu.Lock()
	delete(n.reqs, id)
	n.mu.Unlock()
}

// syncLoop runs headers-first catch-up whenever a peer advertises a higher
// head (wake) and on a timer (catch-all for lost wakes).
func (n *Node) syncLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.StatusInterval)
	defer ticker.Stop()
	for {
		select {
		case <-n.quit:
			return
		case <-n.syncWake:
		case <-ticker.C:
		}
		n.syncOnce()
	}
}

// syncOnce pulls from the best peer until nobody is ahead or progress
// stops (the next round's wake or tick retries).
func (n *Node) syncOnce() {
	for {
		select {
		case <-n.quit:
			return
		default:
		}
		local := n.inner.Chain().Head()
		peer, target := n.bestPeer(local.Number)
		if peer == "" {
			return
		}
		if !n.syncFrom(peer, target) {
			return
		}
	}
}

// bestPeer returns the non-demoted peer advertising the greatest height
// above ours; iteration over the sorted membership keeps ties
// deterministic.
func (n *Node) bestPeer(above uint64) (NodeID, uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	var best NodeID
	var bestHeight uint64
	for _, id := range n.others {
		ps := n.peers[id]
		if ps == nil || ps.score <= demoteBelow {
			continue
		}
		if ps.height > above && ps.height > bestHeight {
			best, bestHeight = id, ps.height
		}
	}
	return best, bestHeight
}

// syncFrom performs one headers-first round against a peer: fetch a batch
// of headers extending the local head, check their linkage, then fetch and
// import each body. Returns true when at least one block was imported (the
// caller loops for more). A peer serving headers that do not link, bodies
// that do not match, or blocks the chain refuses to apply (a proof in a
// folded block that does not verify, a fold the header lies about, a
// replay that diverges) is demoted hard; timeouts merely end the round.
func (n *Node) syncFrom(peer NodeID, target uint64) bool {
	local := n.inner.Chain().Head()
	if target <= local.Number {
		return false
	}
	count := int(target - local.Number)
	if count > headersBatch {
		count = headersBatch
	}
	resp, err := n.request(peer, Message{Kind: MsgGetHeaders, From: local.Number + 1, Count: count})
	if err != nil || !resp.OK || len(resp.Headers) == 0 {
		return false
	}
	// Headers must chain directly off our head: number-sequential and
	// parent-linked. With round-robin leadership there are no forks to
	// choose between — any valid headers extend our prefix.
	prevNum, prevHash := local.Number, local.Hash()
	for i := range resp.Headers {
		if resp.Headers[i].Number != prevNum+1 || resp.Headers[i].Parent != prevHash {
			n.demote(peer, scoreInvalidBlock)
			return false
		}
		prevNum = resp.Headers[i].Number
		prevHash = resp.Headers[i].Hash()
	}

	advanced := false
	for _, h := range resp.Headers {
		body, err := n.request(peer, Message{Kind: MsgGetBody, From: h.Number})
		if err != nil || !body.OK {
			break
		}
		if !n.importFetched(peer, h, body.Txs) {
			break
		}
		advanced = true
	}
	if advanced {
		// Propagate what we learned: peers behind us hear the new head
		// without waiting for the original sealer to reach them.
		n.announce(n.inner.Chain().Head(), peer)
	}
	return advanced
}

// importFetched checks that a fetched body matches its header and applies
// the block to the local chain. The import is the proof check: the chain
// folds the body's proofs exactly as the sealer did, verifying each once,
// and refuses — rolling everything back — a folded block carrying a proof
// that fails or recording a fold its body does not produce. A separate
// screen in front of it would verify every proof twice.
func (n *Node) importFetched(peer NodeID, h chain.Block, txs []chain.Transaction) bool {
	if len(txs) != len(h.TxHashes) {
		n.demote(peer, scoreInvalidBlock)
		return false
	}
	for i := range txs {
		if txs[i].Hash() != h.TxHashes[i] {
			n.demote(peer, scoreInvalidBlock)
			return false
		}
	}
	// Marked before the import publishes it, so the announcer does not
	// take it for a block sealed here.
	n.markBlockSeen(h.Hash())
	if _, err := n.inner.ImportBlock(h, txs); err != nil {
		// Racing our own seal or a concurrent import is not the peer's
		// fault; everything else (bad proof, lying fold, bad replay, state
		// mismatch) is.
		if !errors.Is(err, chain.ErrNotNextBlock) && !errors.Is(err, chain.ErrBadParent) {
			n.demote(peer, scoreInvalidBlock)
		}
		return false
	}
	n.credit(peer, scoreGood)
	n.syncImports.Add(1)
	return true
}
