package p2p

import (
	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/storage"
)

// handle is the transport delivery callback. The dispatcher invokes it
// serially, so it must never wait for a network response: it records peer
// state, admits and forwards gossip, serves data requests, and routes
// responses to the goroutines awaiting them. Response-awaiting protocols
// (sync, blob fetch) live on their own goroutines.
func (n *Node) handle(from NodeID, msg Message) {
	switch msg.Kind {
	case MsgStatus:
		n.recordPeerHead(from, msg.Height, msg.Head)
	case MsgBlockAnnounce:
		n.handleAnnounce(from, msg)
	case MsgTxPush:
		n.handleTxPush(from, msg)
	case MsgGetHeaders:
		n.serveHeaders(from, msg)
	case MsgGetBody:
		n.serveBody(from, msg)
	case MsgGetBlob:
		n.serveBlob(from, msg)
	case MsgBlobPush:
		n.acceptBlob(from, msg)
	case MsgHeaders, MsgBody, MsgBlob:
		n.routeResponse(msg)
	}
}

// recordPeerHead updates a peer's advertised head and wakes the sync loop
// when the peer is ahead of us.
func (n *Node) recordPeerHead(from NodeID, height uint64, head chain.Hash) {
	n.mu.Lock()
	ps, ok := n.peers[from]
	if ok {
		ps.height = height
		ps.head = head
	}
	n.mu.Unlock()
	if !ok {
		return
	}
	if height > n.inner.Chain().Head().Number {
		n.wakeSync()
	}
}

// handleAnnounce treats a block announcement as a status update plus a
// propagation hint: the header itself still arrives through sync (which
// fetches and validates the body), but a fresh announcement is re-gossiped
// so propagation does not rely on the original sealer reaching everyone.
func (n *Node) handleAnnounce(from NodeID, msg Message) {
	if n.isDemoted(from) || len(msg.Headers) != 1 {
		return
	}
	h := msg.Headers[0]
	n.recordPeerHead(from, msg.Height, msg.Head)
	if !n.markBlockSeen(h.Hash()) {
		return
	}
	if h.Number > n.inner.Chain().Head().Number {
		for _, id := range n.gossipTargets(from) {
			n.net.Send(n.cfg.ID, id, msg) //nolint:errcheck // unreliable by contract
		}
	}
}

// handleTxPush admits gossiped transactions: unseen ones are screened by
// the chain's block verifier (an invalid proof demotes the pusher and drops
// the transaction), admitted to the local pool, and re-pushed to a fanout of
// other peers. Admission rejections (duplicate nonce, underfunded sender)
// are not the pusher's fault and are ignored; the seen-cache already
// stops the echo.
func (n *Node) handleTxPush(from NodeID, msg Message) {
	if n.isDemoted(from) {
		return
	}
	fresh := make([]chain.Transaction, 0, len(msg.Txs))
	for _, tx := range msg.Txs {
		if n.markTxSeen(tx.Hash()) {
			fresh = append(fresh, tx)
		}
	}
	if len(fresh) == 0 {
		return
	}
	ptrs := make([]*chain.Transaction, len(fresh))
	for i := range fresh {
		ptrs[i] = &fresh[i]
	}
	errs := n.inner.Chain().CheckTxs(ptrs)
	valid := fresh[:0]
	for i := range fresh {
		if errs[i] == nil {
			valid = append(valid, fresh[i])
		}
	}
	if invalid := len(fresh) - len(valid); invalid > 0 {
		n.demote(from, scoreInvalidTx*invalid)
		n.txsInvalid.Add(uint64(invalid))
	}
	fresh = valid
	if len(fresh) == 0 {
		return
	}
	admitted := 0
	for i := range fresh {
		if _, err := n.inner.Submit(fresh[i]); err == nil {
			admitted++
		}
	}
	// Forwards are counted before the acceptance: a reader that sees every
	// member accept a transaction sees every forward it triggered.
	n.pushTxs(fresh, from, &n.txsForwarded)
	n.txsAccepted.Add(uint64(admitted))
}

// serveHeaders answers a headers-range request from the local chain.
func (n *Node) serveHeaders(from NodeID, msg Message) {
	headers := n.inner.Chain().HeadersRange(msg.From, min(msg.Count, headersBatch))
	n.reply(from, Message{
		Kind:    MsgHeaders,
		ReqID:   msg.ReqID,
		Headers: headers,
		OK:      len(headers) > 0,
	})
}

// serveBody answers a block-body request from the local chain.
func (n *Node) serveBody(from NodeID, msg Message) {
	txs, ok := n.inner.Chain().BlockBody(msg.From)
	resp := Message{Kind: MsgBody, ReqID: msg.ReqID, Txs: txs, OK: ok}
	if !ok {
		resp.Err = "no such block"
	}
	n.reply(from, resp)
}

// serveBlob answers a blob request from the local store. A miss is an
// honest refusal (OK=false); only tampered content is a fault, and the
// store itself reports that distinctly.
func (n *Node) serveBlob(from NodeID, msg Message) {
	resp := Message{Kind: MsgBlob, ReqID: msg.ReqID, URI: msg.URI}
	if n.cfg.Store == nil {
		resp.Err = "no store"
	} else if data, err := n.cfg.Store.Get(msg.URI); err != nil {
		resp.Err = err.Error()
	} else {
		owner, _ := n.cfg.Store.Owner(msg.URI)
		resp.Blob = data
		resp.Owner = owner
		resp.OK = true
	}
	n.reply(from, resp)
}

// acceptBlob stores a replicated blob after checking that the content
// matches its claimed address; a mismatch demotes the pusher.
func (n *Node) acceptBlob(from NodeID, msg Message) {
	if n.cfg.Store == nil || n.isDemoted(from) {
		return
	}
	if storage.URIOf(msg.Blob) != msg.URI {
		n.demote(from, scoreInvalidTx)
		return
	}
	n.cfg.Store.Put(msg.Owner, msg.Blob) //nolint:errcheck // local put cannot fail
}

// reply sends a response, piggybacking the local head so every exchange
// doubles as a status update.
func (n *Node) reply(to NodeID, msg Message) {
	head := n.inner.Chain().Head()
	msg.Height = head.Number
	msg.Head = head.Hash()
	n.net.Send(n.cfg.ID, to, msg) //nolint:errcheck // unreliable by contract
}

// routeResponse hands a response to the goroutine awaiting its ReqID; late
// or duplicate responses are dropped. The response's piggybacked head also
// refreshes peer tracking via the caller (request records it).
func (n *Node) routeResponse(msg Message) {
	n.mu.Lock()
	ch, ok := n.reqs[msg.ReqID]
	if ok {
		delete(n.reqs, msg.ReqID)
	}
	n.mu.Unlock()
	if ok {
		select {
		case ch <- msg:
		default:
		}
	}
}
